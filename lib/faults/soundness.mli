(** Abstraction soundness under failures (paper §9 limitation).

    A Bonsai abstraction is computed for the {e intact} topology: one
    abstract node stands for many concrete nodes, one abstract edge for
    many concrete links. Under failures the two networks can drift apart —
    the canonical example is a fattree whose 6-node abstraction is
    partitioned by a single link failure the concrete network routes
    around. This module makes that drift observable: map a failure
    scenario through the abstraction functions, re-solve both sides, and
    compare per-node reachability verdicts. *)

type mismatch = {
  mis_node : int;  (** concrete node whose verdict differs *)
  mis_abs : int;  (** the abstract copy it was compared against *)
  concrete_reaches : bool;
  abstract_reaches : bool;
  concrete_stable : bool;  (** the re-solved concrete SRP converged *)
  abstract_stable : bool;
}

val sweep :
  ?budget:Budget.t ->
  ?concrete_cache:'a Fault_engine.cache ->
  ?abstract_cache:'b Fault_engine.cache ->
  ?phase:string ->
  Abstraction.t ->
  concrete:'a Srp.t ->
  abstract_:'b Srp.t ->
  Fault_engine.plan ->
  (mismatch * mismatch list) Fault_engine.search
(** {!Fault_engine.search} of the plan, re-solving both networks under
    each scenario (the abstract one under its image through [f]; a
    diverged side reaches nothing). A mismatch is a surviving concrete
    node whose reachability disagrees with {e every} abstract copy of its
    group (the per-solution refinement may map it to any copy). The
    failure is the first scenario with one, shrunk to 1-minimal, with all
    its mismatches in node order (the first, then the rest): what the
    repair loop (lib/repair) pins in one round. The caches memoize each
    side's re-solves ({!Fault_engine.run}, under [budget]) and must each
    be dedicated to one side's SRP, the abstract one to one abstraction. *)

(** {1 The fault-tolerance report}

    The analysis behind both [bonsai faults] and the serve [faults] op. *)

type report = {
  net : Device.network;
  ec : Ecs.ec;
  k : int;  (** most simultaneous link failures per scenario *)
  abstraction : Abstraction.t;  (** the abstraction checked *)
  plan : Fault_engine.plan;  (** the scenarios surveyed *)
  n_stable : int;  (** scenarios where every surviving node reaches *)
  n_skipped : int;  (** planned scenarios the budget left unrun *)
  time_s : float;  (** wall clock of the concrete survey *)
  disconnected : (Scenario.t * int list) list;
      (** stable scenarios stranding nodes, with those nodes *)
  diverged : (Scenario.t * Solver.verdict) list;
  sweep : (mismatch * mismatch list) Fault_engine.search;
      (** the soundness {!sweep} of the plan; a [cut] one leaves soundness
          unknown unless it had already found a failure *)
  cache_hits : int;  (** concrete re-solves the soundness sweep reused *)
}

val run :
  budget:Budget.t ->
  samples:int option ->
  seed:int ->
  k:int ->
  abstraction:Abstraction.t ->
  Device.network ->
  Ecs.ec ->
  report
(** Survey the class's SRP under the network's model ({!Compile.model})
    in the scenarios of [Fault_engine.plan ?samples ~seed ~k], then check
    [abstraction], solved under the same model, on each of them with
    {!sweep}. One [budget] bounds both: the survey counts what it could
    not afford in [n_skipped], and a sweep it ends early says so instead
    of claiming soundness. One concrete-side cache serves both.
    @raise Bonsai_error.Error [Compile_error] on a [k] or a sample count
    below 1 (a sweep of no scenarios proves nothing), as [Repair.harden]
    reports them. *)

val report_json_fields : report -> (string * Json.t) list
(** The [bonsai faults --format json] document's fields; the serve
    [faults] op answers with them after its ["network"] field. *)
