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

val abstract_scenario : Abstraction.t -> Scenario.t -> Scenario.t
(** The failure set mapped through [f]: downed links through
    {!Abstraction.link_image} (intra-group links vanish), downed nodes
    through {!Abstraction.node_image}. *)

val check_all :
  ?concrete_cache:'a Fault_engine.cache ->
  ?abstract_cache:'b Fault_engine.cache ->
  Abstraction.t ->
  concrete:'a Srp.t ->
  abstract_:'b Srp.t ->
  Scenario.t ->
  mismatch list
(** Re-solve both networks under the scenario (a diverged side counts as
    reaching nothing, as in {!Reachability}) and return {e every} concrete
    node — in increasing id order, skipping downed nodes — whose
    reachability disagrees with every abstract copy of its group (the
    per-solution refinement may map a node to any copy, so disagreement
    with all of them is what rules out a refinement that saves the
    abstraction). The full set is what the CEGAR repair loop (lib/repair)
    pins in one round; [[]] means the abstraction answered this scenario's
    reachability queries correctly.

    [concrete_cache]/[abstract_cache] memoize the two per-side re-solves
    ({!Fault_engine.run}); each cache must be dedicated to its side's SRP
    (the abstract one only for the lifetime of one abstraction). *)

val check :
  ?concrete_cache:'a Fault_engine.cache ->
  ?abstract_cache:'b Fault_engine.cache ->
  Abstraction.t ->
  concrete:'a Srp.t ->
  abstract_:'b Srp.t ->
  Scenario.t ->
  mismatch option
(** The lowest-id mismatch of {!check_all} ([None] iff none). *)

val first_break :
  ?concrete_cache:'a Fault_engine.cache ->
  ?abstract_cache:'b Fault_engine.cache ->
  Abstraction.t ->
  concrete:'a Srp.t ->
  abstract_:'b Srp.t ->
  Scenario.t list ->
  (Scenario.t * mismatch) option
(** The first scenario (in list order) where {!check} reports a mismatch,
    greedily shrunk ({!Scenario.shrink}) to a 1-minimal failing failure
    set — the counterexample an operator can act on. The returned mismatch
    is re-computed on the shrunk scenario. *)

(** {1 The fault-tolerance report}

    The analysis behind both [bonsai faults] and the serve [faults] op. *)

type report = {
  net : Device.network;
  ec : Ecs.ec;
  k : int;  (** most simultaneous link failures per scenario *)
  abstraction : Abstraction.t;  (** the abstraction checked *)
  survey : Bgp.attr Fault_engine.report;  (** the concrete outcomes *)
  disconnected : (Scenario.t * int list) list;
      (** stable scenarios stranding nodes, with those nodes *)
  diverged : (Scenario.t * Bgp.attr Solver.diagnosis) list;
  break_ : (Scenario.t * mismatch) option;  (** {!first_break} of the plan *)
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
(** Survey the class's eBGP SRP ({!Compile.bgp_srp}) under the scenarios
    of [Fault_engine.plan ?samples ~seed ~k], then check [abstraction]
    on each of them. [budget] bounds the survey ({!Fault_engine.survey});
    one concrete-side cache serves both sweeps.
    @raise Bonsai_error.Error [Compile_error] on a negative [k] or a
    sample count below 1 (a sweep of no scenarios proves nothing), as
    [Repair.harden] reports them. *)

val report_json_fields : report -> (string * Json.t) list
(** The [bonsai faults --format json] document's fields; the serve
    [faults] op answers with them after its ["network"] field. *)
