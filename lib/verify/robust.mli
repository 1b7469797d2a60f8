(** Verification over {e all} stable solutions.

    An SRP can have several stable solutions (paper §3.1) — which one the
    network converges to depends on message timing. A property verified on
    one solution may silently fail in another (e.g. which of the paper's
    Figure 2 middle routers sends traffic through the top router differs
    per solution). This module quantifies over solutions: exhaustively for
    small networks (via {!Solver.enumerate_solutions}), by seeded sampling
    otherwise.

    Combined with compression this is the paper's intended workflow: a
    property holds in every solution of the concrete network iff it holds
    (modulo [f], [h]) in every solution of the abstract network — and the
    abstract network is usually small enough to enumerate. *)

type 'a result =
  | Holds  (** holds in every stable solution (exhaustive) *)
  | Fails of 'a Solution.t  (** a counterexample solution *)
  | Sampled_holds of int
      (** held in each of the n sampled solutions (non-exhaustive) *)

val for_all_solutions :
  ?max_nodes:int ->
  ?tries:int ->
  'a Srp.t ->
  ('a Solution.t -> bool) ->
  'a result
(** Exhaustive when the network has at most [max_nodes] (default 12)
    nodes; otherwise checks the distinct solutions found by [tries]
    (default 16) seeded solver runs. *)

val exists_solution :
  ?max_nodes:int -> ?tries:int -> 'a Srp.t -> ('a Solution.t -> bool) ->
  'a Solution.t option
(** A solution satisfying the predicate, if one is found. *)

(** {1 Quantifying over failure scenarios}

    Verification under all (or sampled) failure scenarios up to [k] downed
    links, Tiramisu-style, built on {!Fault_engine} (lib/faults). Note the
    quantifier order: per scenario we check {e one} solver solution — the
    paper's multi-solution subtlety and the failure quantifier compose but
    multiply the cost; combine with [for_all_solutions] manually when both
    matter. *)

type 'a fault_result =
  | Fault_holds of { scenarios : int; exhaustive : bool }
  | Fault_fails of Scenario.t * 'a Solution.t
      (** a 1-minimal failure set and the violating stable solution *)
  | Fault_diverges of Scenario.t * 'a Solver.diagnosis
      (** a 1-minimal failure set under which the SRP no longer
          converges *)

val for_all_failures :
  ?k:int ->
  'a Srp.t ->
  ('a Solution.t -> bool) ->
  'a fault_result
(** Does the property hold in the solved solution of every surviving
    network with at most [k] (default 1) downed links? The scenarios are
    {!Fault_engine.plan}'s, the counterexample {!Fault_engine.search}'s,
    shrunk before reporting. Divergence counts as a violation (the network
    has no stable routing to judge). *)
