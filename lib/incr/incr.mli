(** Incremental compression engine: delta-driven abstraction maintenance.

    [init] compresses a network once and keeps the state alive; on each
    [recompress] the engine applies a list of {!Delta.t}s and brings every
    destination class's abstraction up to date while doing as little work
    as the change allows:

    - {e reuse}: classes none of whose refinement inputs changed (no
      topology delta, no edge-signature change incident to a touched
      router, preference levels and origin untouched) keep their old
      result verbatim;
    - {e seeded}: classes whose preference structure is trivial (every
      router at the default local preference, no static routes for the
      destination) re-refine starting from the {e old} partition — a
      split-only fixpoint reaches the coarsest stable refinement of the
      old partition, and a quotient-level refine-and-merge pass coarsens
      it back to exactly the from-scratch partition (see DESIGN.md §12
      for the proof sketch);
    - {e scratch}: everything else recomputes, still sharing the
      policy-signature cache ({!Sig_cache}) so unchanged route-maps are
      never re-encoded;
    - {e full rebuild}: node additions/removals renumber the id space and
      attribute-universe changes invalidate cached BDDs — all classes
      recompute against a fresh cache.

    Repair pins survive: they are stored by router name, re-resolved
    against the updated network, and both the seeded and the scratch path
    force them into singleton classes. Budget exhaustion degrades exactly
    like [Bonsai_api.compress]: the class that ran out and every remaining
    class fall back to the identity abstraction.

    This module is the library surface ISSUE.md calls
    [Bonsai_api.recompress]; it lives here because lib/incr depends on
    lib/core (see the pointer in [bonsai_api.mli]). *)

type state

type report = {
  r_deltas : int;  (** deltas applied *)
  r_ecs : int;  (** single-origin destination classes after the change *)
  r_reused : int;  (** classes whose old result was reused verbatim *)
  r_seeded : int;  (** classes re-refined from the surviving partition *)
  r_scratch : int;  (** classes recomputed from scratch (cache-backed) *)
  r_full_rebuild : bool;
      (** node set or attribute universe changed: cache rebuilt, every
          class recomputed *)
  r_recertified : int;
      (** reused/seeded results independently re-certified
          ({!Certify.check_result} in a fresh universe) *)
  r_recert_refuted : int;
      (** reused/seeded candidates whose certificate was refuted — each
          was discarded and recomputed from scratch (counted there) *)
  r_cache_hits : int;  (** {!Sig_cache} hits during this recompression *)
  r_cache_misses : int;
  r_time_s : float;  (** wall-clock for the whole recompression *)
  r_degradation : Bonsai_api.degradation option;
}

val init :
  ?pinned:int list ->
  ?cache_cap:int ->
  ?universe:Policy_bdd.universe ->
  ?budget:Budget.t ->
  Device.network ->
  (state, Bonsai_error.t) result
(** Compress from scratch and set up the cache. [pinned] node ids (of this
    network) are remembered by name and enforced on every later
    recompression. [cache_cap] bounds the signature cache
    ({!Sig_cache.create}'s [max_entries]), including after full rebuilds;
    a resident engine passes it so the shared BDD root set stays bounded
    across thousands of recompressions. [universe] seeds the signature
    cache with a caller-built universe (modular compression: a fresh
    manager per module over the global value layout) instead of one
    derived from [net]. *)

val recompress :
  ?budget:Budget.t ->
  ?recertify:Certify.audit ->
  state ->
  Delta.t list ->
  (report, Bonsai_error.t) result
(** Apply the deltas and update every class's abstraction. The state is
    mutated only on success; on [Error] it still describes the previous
    network. An invalid delta (unknown router, duplicate link, ...) or a
    post-change network failing [Device.validate] is a [Compile_error].

    [recertify] audits every reused and seeded result with
    {!Certify.check_result} against a fresh BDD universe before trusting
    it: a refuted candidate is thrown away and that class recomputes from
    scratch (the reuse ladder can be wrong only through engine bugs or a
    corrupted cache — never silently). [Audit_incomplete] (budget ran
    out mid-audit) keeps the candidate but does not count it as
    re-certified. *)

val recompress_net :
  ?budget:Budget.t ->
  ?recertify:Certify.audit ->
  state ->
  Device.network ->
  (Delta.t list * report, Bonsai_error.t) result
(** [recompress_net st net'] diffs the current network against [net'] and
    recompresses; returns the deltas it derived. The engine of
    [bonsai watch], where only the new configuration text is known. *)

val quotient_merge :
  Union_split_find.t ->
  Device.network ->
  dest:int ->
  signature:(int -> int -> 'k) ->
  pinned:int list ->
  budget:Budget.t ->
  unit
(** The merge half of the seeded path (DESIGN.md §12), coarsening a
    stable over-refinement in place: refine the quotient (one element
    per class, key from a representative) and merge classes sharing a
    quotient block. Exposed for modular compression, whose composition
    pass seeds a global refinement with the union of per-module
    partitions and needs the identical merge to recover the exact
    from-scratch partition. *)

val no_lp_no_redistribute : Device.network -> bool
(** No import route-map sets a local preference and no router
    redistributes: together with {!ec_seedable} this is the guard under
    which the seeded split-then-merge path is provably exact. *)

val ec_seedable : prefs_trivial:bool -> Device.network -> Ecs.ec -> bool
(** No static route covers the class and (unless [prefs_trivial] already
    established it network-wide) every router's effective preference set
    is exactly [{default}]. *)

val network : state -> Device.network

val sig_cache : state -> Sig_cache.t
(** The state's policy-signature cache, for read-only composition: the
    data-plane differ ({!Dp_diff} in lib/dataplane) proves classes
    untouched through the same cache so BDD ids stay comparable. *)

val solution_unchanged :
  old_net:Device.network ->
  new_net:Device.network ->
  cache:Sig_cache.t ->
  touched:int list ->
  Ecs.ec ->
  bool
(** The clean-class check at the heart of {!recompress}, exposed for
    data-plane reuse: the class's stable solution (and hence its FIB,
    since ACLs are part of the edge signature) is provably identical
    across the delta. [touched] are the routers any delta touches
    ([Delta.touched], deduplicated); both networks must share the same
    topology (the caller gates topology/node deltas) and [cache] must be
    {!Sig_cache.compatible} with both. The class's origins are the
    caller's obligation to compare. *)

val summary : state -> Bonsai_api.summary
(** The maintained per-class results, shaped like a fresh
    [Bonsai_api.compress] summary (times are those of the computation
    that produced each surviving result). *)

val cache_stats : state -> int * int
(** Cumulative (hits, misses) of the policy-signature cache. *)

val cache_evictions : state -> int
(** Entries evicted by the [cache_cap] so far. *)

val rearm : state -> unit
(** Reset every transient resource handle after the state was read back
    from a checkpoint (Marshal): re-installs the shared
    [Budget.infinite] in each BDD manager, whose marshaled copy lost the
    physical identity the fast-path check relies on. Call exactly once on
    a freshly unmarshaled state; a no-op on states built by {!init}. *)

val bdd_stats : state -> Bdd.stats
val pp_report : Format.formatter -> report -> unit

val reuse_json_fields : report -> (string * Json.t) list
(** How each class was maintained, for the CLI and the resident engine:
    [reused], [seeded], [scratch], [full_rebuild]. *)

val recert_json_fields : report -> (string * Json.t) list
(** [recertified] and [recert_refuted], for a run with re-certification. *)
