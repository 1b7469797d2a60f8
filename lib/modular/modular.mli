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

    Soundness of the composition is argued in DESIGN.md §16: a module's
    refinement partition depends only on the destination class, the edge
    signatures incident to the module, and its members' preference
    levels — all preserved verbatim by the subnet construction (boundary
    neighbors are replicated as pinned singleton stubs) — so the union
    of per-module partitions is a {e stable} refinement of the global
    partition, and the incremental engine's quotient-merge pass
    ({!Incr.quotient_merge}) coarsens it back to exactly the
    from-scratch result under the seeded-path guards. Degraded modules
    contribute the identity (discrete) partition, which only refines the
    union further — degradation composes. *)

type mode = Annot | Auto

val mode_of_string : string -> mode option
val mode_to_string : mode -> string

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
  mr_time_s : float;
}

type report = {
  rp_modules : module_report list;  (** sorted by module name *)
  rp_routers : int;  (** total member routers across modules *)
  rp_skipped_anycast : int;
  rp_time_s : float;
}

val any_fault : report -> bool
(** Some module is degraded or refuted (the CLI's degrade-gate input). *)

type state
(** A composed run kept warm: the global network, the partition, and one
    incremental engine state ({!Incr.state}) per healthy module — each
    with its own signature cache, so a delta recompresses only its
    module. *)

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
    {!Certify.check_result} (fresh universe) and treats a refutation as
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
val network : state -> Device.network

val module_names : state -> string list
(** Sorted; the health-table order. *)

val module_summary : state -> string -> Bonsai_api.summary option
(** The named module's warm per-class results over its subnet (boundary
    stubs included), shaped like a [Bonsai_api.compress] summary; [None]
    if the module is unknown or cold (degraded/quarantined). The resident
    engine reads — and its test-corrupt hook mutates — warm module state
    through this. *)

val quarantine : state -> string -> bool
(** Drop the named module's warm engine state (its next use degrades to
    identity until {!rebuild_module}); [false] if unknown or already
    cold. The resident engine's module-level quarantine on self-audit
    refutation. *)

val rebuild_module :
  ?budget:Budget.t -> state -> string -> (unit, Bonsai_error.t) result
(** Recompress just the named module cold (fresh subnet state), leaving
    every other module's warm state untouched; updates the health table
    entry. *)

val self_audit : ?budget:Budget.t -> state -> (string * string) list
(** Re-check every warm module's results with the independent
    certificate checker (fresh universe per module). Returns refuted
    [(module, detail)] pairs {e after} quarantining each — the caller
    records incidents and may {!rebuild_module}. *)

val update :
  ?budget:Budget.t -> state -> Delta.t list -> (Incr.report option, Bonsai_error.t) result
(** Apply configuration deltas. When every touched router is an
    {e interior} member of one healthy module (no boundary router, no
    node add/remove), only that module recompresses — through its own
    signature cache — and [Some report] carries the incremental stats.
    Anything wider falls back to a full re-run ([None]). *)

val compose :
  ?budget:Budget.t -> state -> (Bonsai_api.summary, Bonsai_error.t) result
(** Compose the per-module partitions into whole-network abstractions,
    one per destination class, shaped like a [Bonsai_api.compress]
    summary. Under the seeded-path guards ({!Incr.no_lp_no_redistribute}
    + {!Incr.ec_seedable}) this seeds a global refinement with the union
    of module partitions and recovers the {e exact} from-scratch
    partition via {!Incr.quotient_merge}; otherwise it falls back to
    from-scratch compression of the class (sound, just not reusing
    module work). Degraded modules enter as identity partitions. *)

val pp_report : Format.formatter -> report -> unit
(** The health table, deterministic byte-for-byte (no wall-clock). *)

val module_to_json : timed:bool -> module_report -> Json.t
(** One module's health row for the CLI and the resident engine; with
    [~timed:true] it carries the module's wall-clock [time_s], which
    byte-stable output leaves out. *)

val report_json_fields : report -> (string * Json.t) list
(** JSON response fields for the CLI and the resident engine; includes
    per-module times (callers needing byte-stable output normalize or
    drop them). *)
