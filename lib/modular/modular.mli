(** Modular compression with per-module fault isolation.

    The paper's compression is monolithic: one refinement over the whole
    network, so one diverging destination class or exhausted budget
    degrades the entire run. Following LIGHTYEAR's posture — split the
    network into modules verified against interface summaries — this
    engine partitions the network (operator [module NAME] annotations,
    falling back to a BFS-region heuristic), summarizes each module's
    boundary as stub [env] routers carrying the interface routes its
    boundary sessions would deliver, and compresses every module
    independently under its own {!Budget.split} slice and fresh BDD
    manager (sharing the {e global} attribute-universe layout, so policy
    equality means the same thing in every module).

    The robustness contract: a module that diverges, exhausts its slice,
    or is refuted by the certificate checker is {e isolated} — retried
    once with an escalated slice, then degraded to the identity
    abstraction {e for that module only} — while healthy modules keep
    their exact compression. The final report carries a per-module
    health table (ok / retried / degraded / refuted) in deterministic
    (name) order.

    The engine answers per module only: the whole network's abstraction
    is [Bonsai_api.compress] ([bonsai compress --all]). DESIGN.md §16
    says why the pinned boundary stubs and the shared universe layout
    stay. *)

type mode = Annot | Auto

val mode_of_string : string -> mode option

val partition :
  ?count:int ->
  mode:mode ->
  Device.network ->
  ((string * int list) list, string) result
(** Module name -> member node ids (ascending), sorted by module name.
    [Annot] reads [module NAME] annotations and fails if any router
    lacks one. [Auto] grows BFS regions of roughly equal size; [count]
    (default: [max 2 (n / 100)], capped at 64) asks for that many
    regions. *)

type health = Healthy | Retried | Degraded | Refuted

val health_name : health -> string
(** ["ok"], ["retried"], ["degraded"], ["refuted"]. *)

type module_report = {
  mr_name : string;
  mr_routers : int;  (** member routers (boundary stubs excluded) *)
  mr_ecs : int;  (** destination classes compressed *)
  mr_concrete : int;  (** sum over classes of member nodes *)
  mr_abstract : int;
      (** sum over classes of member-visible abstract groups; equals
          [mr_concrete] for a degraded module (identity abstraction) *)
  mr_health : health;
  mr_detail : string option;  (** budget info / refutation detail *)
}

type report = {
  rp_modules : module_report list;  (** sorted by module name *)
  rp_routers : int;  (** total member routers across modules *)
  rp_skipped_anycast : int;
  rp_time_s : float;
}

val faulted : module_report -> bool
(** The module is degraded or refuted. *)

val any_fault : report -> bool
(** Some module is degraded or refuted (the CLI's degrade-gate input). *)

type state
(** A modular run kept warm: the per-class results of every healthy
    module, which {!report} tabulates and {!self_audit} re-checks. *)

val run :
  ?mode:mode ->
  ?count:int ->
  ?budget:Budget.t ->
  ?certify:bool ->
  ?inject_fault:string list ->
  ?retry_pause:(string -> unit) ->
  Device.network ->
  (state, Bonsai_error.t) result
(** Partition, summarize boundaries, compress every module under its own
    budget slice. [certify] self-audits each module's results with
    {!Certify.check_summary} (fresh universe) and treats a refutation as
    a module fault. [inject_fault] forces the named modules to run under
    a 1-tick budget (both attempts) — the deterministic fault used by
    tests and the fault-isolation golden. [retry_pause m] is called
    before module [m]'s escalated retry (the CLI wires {!Backoff}
    pacing in; defaults to no pause). Only a partition failure or an
    invalid input network fails the whole run — module faults degrade
    that module only. *)

val run_stream :
  ?budget:Budget.t ->
  ?certify:bool ->
  ?inject_fault:string list ->
  ?retry_pause:(string -> unit) ->
  count:int ->
  (string * Device.network) Seq.t ->
  (report, Bonsai_error.t) result
(** The 10k-router path: each element is an already-summarized,
    self-contained module subnet (e.g. {!Synthesis.multiwan_stream});
    modules are compressed one at a time and only the report is
    retained, so the whole network is never materialized. [count] is the
    expected module count (it paces the budget slices). *)

val report : state -> report

val module_summary : state -> string -> Bonsai_api.summary option
(** The named module's warm per-class results over its subnet (boundary
    stubs included), shaped like a [Bonsai_api.compress] summary; [None]
    if the module is unknown or cold (degraded/quarantined). The resident
    engine's test-corrupt hook mutates warm module state through this. *)

val self_audit : ?budget:Budget.t -> state -> (string * string) list
(** Re-check every warm module's results with the independent
    certificate checker (fresh universe per module). A refuted module is
    quarantined: its results are dropped and its health becomes
    [Refuted] with the refutation as detail, so its rows report the
    identity abstraction, while every other module stays warm. Returns
    the refuted [(module, detail)] pairs, for the caller to record as
    incidents. *)

val pp_report : Format.formatter -> report -> unit
(** The health table, deterministic byte-for-byte (no wall-clock). *)

val report_json_fields : report -> (string * Json.t) list
(** The document of [bonsai modular --format json] and of serve's
    [modular] op: one [modules] row per module ([module], [routers],
    [ecs], [concrete], [abstract], [health], [detail] if any), [routers],
    [skipped_anycast] and [faulted]. No wall-clock: byte-stable. *)
