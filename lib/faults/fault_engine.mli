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

type sampling =
  | Sample of int  (** sample this many scenarios, whatever the space *)
  | Past_cap of int
      (** enumerate a space of up to 1024 scenarios, else sample this
          many *)

val plan : ?sampling:sampling -> ?seed:int -> k:int -> Graph.t -> plan
(** The one scenario planner: link scenarios up to [k] failures, by
    [sampling] (default [Past_cap 256]). Samples are drawn cut links first
    and deterministically in [seed] (default 0), so a larger sample
    extends a smaller one ({!Scenario.sample}). *)

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

type 'f search = {
  checked : int;  (** scenarios whose check completed *)
  failure : (Scenario.t * 'f) option;
      (** the first failing scenario, shrunk to a 1-minimal one
          ({!Scenario.shrink}), with its failure recomputed there; when
          the budget runs out during the shrink, the scenario as found,
          with the failure its check returned *)
  cut : Budget.info option;
      (** the budget ran out first: before any failing check when
          [failure] is [None], while shrinking it otherwise *)
}

val search :
  ?budget:Budget.t ->
  ?phase:string ->
  (Scenario.t -> 'f option) ->
  plan ->
  'f search
(** The one counterexample search over failure scenarios: check the
    plan's scenarios in order until one fails ([Some]), then shrink it
    with the same check. Each check, shrinking probes included, follows a
    {!Budget.check} under [phase] (default ["faults"]), and [check] should
    solve under the same [budget]. Exhaustion is reported in [cut], never
    raised. *)
