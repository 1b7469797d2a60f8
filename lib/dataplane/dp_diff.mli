(** Differential data-plane compilation: the exact set of FIB entries a
    configuration change adds, removes or modifies — the pre-deployment
    change-review question, answered incrementally.

    Composes {!Dataplane.compile_ec} with lib/incr's class-reuse decision
    ({!Incr.reuse}, the one {!Incr.recompress} takes): destination
    classes whose SRP inputs
    are provably unchanged across the delta are {e reused} without
    solving anything (the edge signature includes the per-edge ACL
    verdict, so the proof covers the data-plane fold too); only dirty
    classes are recompiled — on both networks — and diffed router by
    router. *)

type change_kind = Added | Removed | Modified

type change = {
  c_router : int;
      (** numbered in the new network, or in the old one for [Removed];
          routers pair across the two networks by name *)
  c_prefix : Prefix.t;
  c_kind : change_kind;
  c_old : Dataplane.entry option;  (** [None] iff [Added] *)
  c_new : Dataplane.entry option;  (** [None] iff [Removed] *)
}

type report = {
  dp_deltas : Delta.t list;
  dp_classes : int;  (** single-origin classes examined *)
  dp_reused : int;  (** classes proven unchanged, not recompiled *)
  dp_recompiled : int;  (** classes solved on both networks and diffed *)
  dp_anycast : int;  (** multi-origin classes skipped (no FIB) *)
  dp_full_rebuild : bool;
      (** no reuse was possible: a node-level delta, or no signature
          cache compatible with both networks *)
  dp_changes : change list;  (** sorted by (prefix, router) *)
  dp_unknown : Prefix.t list;
      (** classes with no verdict — budget exhausted or control plane
          diverged; reported, never silently omitted *)
  dp_degradation : Bonsai_api.degradation option;
      (** [Some _] iff [dp_unknown] is non-empty *)
  dp_time_s : float;
}

val run :
  ?budget:Budget.t ->
  ?cache:Sig_cache.t ->
  old_net:Device.network ->
  new_net:Device.network ->
  Delta.t list ->
  (report, Bonsai_error.t) result
(** Diff the data planes of two networks related by [deltas]
    (typically [Delta.diff old_net new_net]), both compiled under one
    model: [Multi] when either network's {!Compile.model} is, else
    [Bgp]. [cache] — e.g. a warm
    {!Incr.sig_cache} — enables class reuse when it is
    {!Sig_cache.compatible} with both networks; without one, a cache is
    built from [old_net]. Reuse is disabled (but recompilation still
    per-class) under topology deltas, and wholesale under node-level
    deltas or cache incompatibility ([dp_full_rebuild]). *)

val changed : report -> bool
(** Any FIB entry added, removed or modified. Note deltas may be
    non-empty while the data plane is identical (e.g. an ACL edit not
    covering any originated prefix). *)

val counts : report -> int * int * int
(** (added, removed, modified) entry counts. *)

val kind_string : change_kind -> string

val report_json_fields :
  old_net:Device.network ->
  new_net:Device.network ->
  report ->
  (string * Json.t) list
(** The document of [bonsai dataplane-diff --format json] and of
    serve's [dataplane-diff] op: [identical] (no change, no unknown
    class), [changed], the [deltas] count and [delta_list], the class
    counts, the [added]/[removed]/[modified] counts, one [changes] row
    per FIB change (router named in the network holding the entry), the
    [unknown] classes, [degraded] and [degradation]. No wall-clock. *)
