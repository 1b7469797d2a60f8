(** Counterexample-guided abstraction repair: fault-sound compression.

    A Bonsai abstraction is proven sound for the failure-free control
    plane; under link failures it can disagree with the concrete network
    (paper §9, {!Soundness}). This module closes the loop instead of
    merely detecting the drift — the standard CEGAR move of
    abstraction-based network verification (ACORN's refinement of
    too-coarse abstractions, Tiramisu's fault-tolerance-first workload):

    + {b compress} the destination class ({!Bonsai_api.compress_ec_exn}),
      seeding the partition with the current {e pin} set — nodes forced
      into singleton classes ({!Refine.partition}'s [?pinned]);
    + {b sweep} failure scenarios up to [k] downed links through
      {!Soundness.check_all} — exhaustively when the scenario space is at
      most [frontier], otherwise an importance sample whose size doubles
      every round;
    + on a mismatch, {b shrink} the scenario to 1-minimal
      ({!Scenario.shrink}), collect {e every} node whose verdict
      disagrees, add them to the pin set, and go to 1.

    Every round is monotone — pins only grow, so the partition only
    refines — which bounds the loop by the node count: in the worst case
    every node is pinned and the abstraction {e is} the concrete network
    (the identity abstraction, trivially sound). Budget or retry
    exhaustion therefore degrades to that identity fallback, exactly like
    a budgeted [bonsai compress --degrade] run, rather than ever emitting
    an unsound artifact.

    Scenario re-solves are memoized ({!Fault_engine.cache}): the concrete
    side shares one cache across all rounds (the concrete network never
    changes), the abstract side one per round. *)

type round_log = {
  rl_round : int;  (** 1-based sweep number *)
  rl_abs_nodes : int;  (** abstract nodes entering this sweep *)
  rl_abs_links : int;
  rl_scenarios : int;  (** scenarios checked before the sweep ended *)
  rl_counterexample : Scenario.t option;
      (** the 1-minimal failing scenario ([None]: clean sweep) *)
  rl_mismatches : Soundness.mismatch list;
      (** every disagreeing node on the minimal scenario *)
  rl_new_pins : int list;  (** nodes pinned in response, sorted *)
  rl_total_pins : int;  (** cumulative pin count after this round *)
}

type t = {
  result : Bonsai_api.ec_result;
      (** the final abstraction; [degraded] iff a fallback fired *)
  rounds : round_log list;  (** chronological; one entry per sweep *)
  pins : int list;  (** final pin set, sorted *)
  n_scenarios : int;  (** scenario checks summed over all sweeps *)
  n_counterexamples : int;
  cache_hits : int;  (** re-solves avoided, both sides, all rounds *)
  fallback : Bonsai_api.fallback;
  sound : bool;
      (** the abstraction passed a full sweep ([false] only when repair
          was disabled and a counterexample was found) *)
  plan_exhaustive : bool;  (** scenario sweeps enumerate, not sample *)
  k : int;
}

val harden_exn :
  ?k:int ->
  ?rounds:int ->
  ?frontier:int ->
  ?samples:int ->
  ?seed:int ->
  ?budget:Budget.t ->
  Device.network ->
  Ecs.ec ->
  t
(** Run the repair loop for one destination class.

    Both networks are solved under the concrete network's model
    ({!Compile.model}). [k] (default 1) bounds simultaneous link
    failures per scenario.
    [rounds] (default 8) bounds {e repair} attempts, i.e. recompressions
    with a grown pin set; [rounds = 0] disables repair — the sweep then
    only diagnoses, and a counterexample yields [sound = false] with the
    unrepaired abstraction (callers map this to the soundness-break exit
    code). [frontier] (default 1024) caps exhaustive enumeration: a
    scenario space at most this large is swept completely, a larger one
    is importance-sampled starting at [samples] (default 64) scenarios,
    doubling every round ([seed] fixes the sample; a widened sample
    extends the previous one, keeping rounds comparable). [budget]
    bounds the whole loop (compression phases tick it as usual, the
    sweep checks it per scenario); exhaustion degrades to the identity
    abstraction instead of raising.

    @raise Invalid_argument on [k] or [samples] below 1 (a sweep of no
    scenarios proves nothing), negative [rounds] or an anycast class. *)

val harden :
  ?k:int ->
  ?rounds:int ->
  ?frontier:int ->
  ?samples:int ->
  ?seed:int ->
  ?budget:Budget.t ->
  Device.network ->
  Ecs.ec ->
  (t, Bonsai_error.t) result
(** {!harden_exn} behind the crash-proof boundary
    ({!Bonsai_error.protect}); [Invalid_argument] becomes
    [Compile_error]. *)

val ratio : t -> float * float
(** (node, link) compression ratio of the final abstraction — 1.0/1.0
    when repair degraded to identity. *)

val json_fields : Device.network -> t -> (string * Json.t) list
(** The [bonsai harden --format json] document's fields for a run on
    the network; the serve [harden] op answers with them after its
    ["network"] field. *)
