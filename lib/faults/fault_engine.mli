(** Re-solving an SRP under failure scenarios.

    For each scenario the surviving SRP is derived (same attributes,
    transfer and preference — only the topology shrinks) and re-solved, and
    the outcome classified: converged with full reachability, converged but
    with stranded nodes, or diverged (with the solver's structured
    diagnosis — perturbing a topology can destroy convergence, cf. "Routing
    Regardless of Network Stability"). *)

type 'a outcome =
  | Stable of 'a Solution.t
      (** stable; every surviving non-destination node reaches the
          destination *)
  | Disconnected of 'a Solution.t * int list
      (** stable, but these surviving nodes do not reach the destination *)
  | Diverged of 'a Solver.diagnosis

val survives : Scenario.t -> dest:int -> bool
(** The destination itself is not downed (otherwise every verdict is
    trivially [Disconnected]). *)

val derive : 'a Srp.t -> Scenario.t -> 'a Srp.t
(** The surviving SRP: {!Scenario.apply} on the topology, everything else
    unchanged. *)

type 'a cache
(** Memo table for {!run}, keyed by the scenario's normalized downed set
    (scenarios are canonical: sorted, deduplicated). A cache is only
    meaningful for a fixed [srp] — the caller owns that invariant. The
    repair loop (lib/repair) threads one concrete-side cache across all
    of its rounds so a scenario is never re-solved twice, and
    [bonsai faults] shares one between the survey and the soundness
    sweep. *)

val cache : unit -> 'a cache
val cache_hits : 'a cache -> int
(** Lifetime hit count (solves avoided). *)

val cache_size : 'a cache -> int
(** Distinct scenarios solved through the cache. *)

val run :
  ?budget:Budget.t -> ?cache:'a cache -> 'a Srp.t -> Scenario.t -> 'a outcome
(** A cache hit consumes no budget.
    @raise Budget.Exhausted when the caller-supplied [budget] (default
    infinite; distinct from the solver's own divergence cutoff, whose
    exhaustion is classified as [Diverged]) runs out mid-solve. *)

type plan = { scenarios : Scenario.t list; exhaustive : bool }

val plan :
  ?budget:int -> ?samples:int -> ?seed:int -> k:int -> Graph.t -> plan
(** Scenario selection: enumerate all link scenarios up to [k] failures
    when there are at most [budget] (default 1024) of them and [samples]
    was not forced; otherwise importance-sample [samples] (default 256)
    scenarios, cut links first ({!Scenario.sample}). *)

type 'a report = {
  plan : plan;
  outcomes : (Scenario.t * 'a outcome) list;
  n_stable : int;
  n_disconnected : int;
  n_diverged : int;
  n_skipped : int;
      (** planned scenarios not run because the budget ran out *)
  n_cache_hits : int;
      (** scenarios answered from the supplied [cache] (0 without one) *)
  time_s : float;  (** wall clock for solving all scenarios *)
}

val survey :
  ?budget:Budget.t -> ?cache:'a cache -> 'a Srp.t -> plan -> 'a report
(** Run every planned scenario ([scenarios/sec = List.length outcomes /.
    time_s] is the bench metric). Exhaustion of [budget] truncates the
    scan: outcomes computed so far are kept and the remainder counted in
    [n_skipped] — [survey] itself never raises on exhaustion. *)
