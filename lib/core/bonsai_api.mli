(** Bonsai: end-to-end control plane compression (paper §5, §7, §8).

    [compress] partitions the destinations into equivalence classes,
    builds one BDD universe for the whole network, and computes one
    abstraction per class (the paper processes classes in parallel; we
    process them sequentially and report per-class times). *)

type ec_result = {
  ec : Ecs.ec;
  abstraction : Abstraction.t;
  refine_stats : Refine.stats;
  time_s : float;  (** wall-clock compression time for this class *)
  degraded : bool;
      (** [true] when this class fell back to the identity abstraction
          (see {!Abstraction.identity}) because a budget ran out:
          compression's, or [Repair.harden]'s budget or round cap *)
}

type degradation = {
  deg_info : Budget.info;  (** where/when the budget ran out *)
  deg_completed : int;  (** classes fully compressed before exhaustion *)
  deg_total : int;  (** classes attempted *)
}

type summary = {
  net : Device.network;
  bdd_time_s : float;
      (** time to build the BDD universe and encode every interface
          policy for the first class (the paper's "BDD time") *)
  results : ec_result list;
  skipped_anycast : int;  (** multi-origin classes (not supported) *)
  degradation : degradation option;
      (** [Some _] iff the budget ran out, and classes fell back to the
          identity abstraction *)
}

val effective_prefs : Device.network -> Ecs.ec -> int -> int list
(** The preference levels refinement must account for at a node:
    {!Compile.prefs} plus, in multi-protocol networks, a [-1] sentinel
    level when administrative distance can demote the node from BGP to a
    redistributed OSPF/static route (the asymmetry needs the same ∀∀
    treatment as local preference, §4.3). Exposed so the incremental
    engine (lib/incr) computes the exact same levels as [compress_ec]. *)

val no_lp_no_redistribute : Device.network -> bool
(** No import route-map sets a local preference and no router
    redistributes: together with {!ec_seedable} this is the guard under
    which the seeded split-then-merge path of {!compress_ec_exn} is
    provably exact. *)

val ec_seedable : prefs_trivial:bool -> Device.network -> Ecs.ec -> bool
(** No static route covers the class and (unless [prefs_trivial] already
    established it network-wide, by {!no_lp_no_redistribute}) every
    router's effective preference set is exactly [{default}]. *)

val compress_ec :
  ?budget:Budget.t ->
  Device.network ->
  Ecs.ec ->
  (ec_result, Bonsai_error.t) result
(** Compress one destination class in a universe of its own. Never
    raises: an exhausted [budget] (default infinite) is
    [Error (Budget_exceeded _)], an anycast class is
    [Error (Compile_error _)]. *)

val compress_ec_exn :
  ?universe:Policy_bdd.universe ->
  ?rm_bdd:(Route_map.t option -> Bdd.t) ->
  ?pinned:int list ->
  ?seed:Union_split_find.t ->
  ?budget:Budget.t ->
  Device.network ->
  Ecs.ec ->
  ec_result
(** Like {!compress_ec} but raising: [Budget.Exhausted] on exhaustion
    (the [budget] is also installed on the universe's BDD manager for the
    duration of the call), [Invalid_argument] on an anycast class. This
    is the one per-class kernel: both pipelines (scratch and
    incremental) hand it, as the worker, to {!compress_classes}. It
    refines on int keys, each edge's pair of {!Compile.signature_table}
    ids, filled lazily during refinement.

    [pinned] forces the listed concrete nodes into singleton partition
    classes before refinement (see {!Refine.partition}); the CEGAR
    repair loop uses it to carve fault-suspect nodes out of merged
    groups. [rm_bdd] is threaded to {!Compile.signature_table}: the
    incremental engine's policy-signature cache ([Sig_cache] in
    lib/incr) supplies it so route-maps of untouched devices are never
    re-encoded. It must encode against [universe].

    [seed] starts refinement from an existing partition (refined in
    place) instead of the coarsest one, then coarsens the stable
    over-refinement back with {!Refine.quotient_merge} under the same
    pins: the result is the from-scratch partition. It is only exact
    for a {e seedable} class ({!ec_seedable}: every node at the
    default preference, no static route for the class), so the seeded
    call uses the constant preference [[Bgp.default_lp]] and one copy
    per abstract node. The incremental engine (lib/incr) is its one
    client: it seeds with the previous partition. *)

val identity_result : Device.network -> Ecs.ec -> ec_result
(** The identity fallback for one class: the discrete partition (see
    {!Abstraction.identity}) against a fresh, un-budgeted universe — the
    budgeted manager may be what ran out — marked [degraded], with zero
    refinement stats and [time_s = 0.0]. *)

val compress_classes :
  ?keep_unmatched_comms:bool ->
  Device.network ->
  Ecs.ec list ->
  (Ecs.ec -> ec_result) ->
  ec_result list * degradation option
(** The one loop that compresses a network's (single-origin) classes,
    for every pipeline, in order and once per {!Compile.class_key}: the
    first class of a key runs [worker], each later one takes that row
    with its own [ec], prefix and [time_s]. Shared rows alias the
    abstraction's arrays, which nothing may mutate. The loop checks
    nothing: a caller that wants the rows audited certifies the
    resulting summary ([Certify.check_summary] in lib/certify). When
    [worker] raises [Budget.Exhausted] at class [i], class [i] and every
    later class fall back to the identity abstraction (as
    {!identity_result}, one skeleton shared across them), and the
    degradation records [i] completed classes, shared ones included.
    [keep_unmatched_comms] selects the fallback's universe, as in
    {!compress}. *)

val find_result : ec_result list -> Prefix.t -> ec_result option
(** The result for the class with this prefix. *)

val refuse_anycast : Ecs.ec -> 'a
(** The one refusal of a multi-origin class by a per-class command:
    raises [Bonsai_error.Error] with a [Compile_error] (exit 5). *)

val refuse_anycasts : Ecs.ec list -> unit
(** {!refuse_anycast} the first multi-origin class of the list, if any. *)

val find_class : Device.network -> string option -> Ecs.ec
(** {!Ecs.find}, refusing an anycast class ({!refuse_anycasts}): the
    class lookup of every per-class command, CLI and serve. *)

val compress :
  ?keep_unmatched_comms:bool ->
  ?ecs:Ecs.ec list ->
  ?budget:Budget.t ->
  Device.network ->
  (summary, Bonsai_error.t) result
(** Compress the classes [ecs] (default: every class, multi-origin ones
    skipped and counted) in order through {!compress_classes}, in one BDD
    universe; [compress --ec] is the one-class case of [compress --all].
    Classes with one {!Compile.class_key} are compressed once, by
    {!compress_ec_exn} (the loop's keying), so a shared class spends no
    refinement ticks of [budget].
    [keep_unmatched_comms] selects the naive attribute abstraction (see
    {!Policy_bdd.universe_of_network}). Budget exhaustion degrades: the
    class that ran out and every later one fall back to the identity
    abstraction (always sound), and [summary.degradation] records where
    the budget went. [Error] is for other failures; a given anycast
    class is a [Compile_error]. *)

val compress_exn :
  ?keep_unmatched_comms:bool ->
  ?ecs:Ecs.ec list ->
  ?budget:Budget.t ->
  Device.network ->
  summary
(** Like {!compress} but unwrapped (budget exhaustion still degrades
    rather than raising; a given anycast class raises
    [Bonsai_error.Error]). *)

val behaviours : summary -> int
(** The number of distinct {!Compile.class_key}s among the rows: how many
    classes {!compress} actually compressed when nothing degraded. *)

val class_summary : summary -> Prefix.t -> summary option
(** The one-row summary of the class with this prefix, as [compress
    ~ecs:[ec]] reports it (no anycast count, a [0/1] degradation iff the
    row fell back on budget); [None] when no row has the prefix. *)

(** {1 Fault-sound compression (counterexample-guided repair)} *)

(** Which fallback [Repair.harden] (lib/repair) took, if any. *)
type fallback =
  | No_fallback
  | Budget_fallback of Budget.info
      (** the budget ran out mid-repair: identity abstraction returned *)
  | Rounds_fallback
      (** the retry count ran out: identity abstraction returned *)

(** {1 Reporting} *)

val abs_nodes : summary -> float * float
(** Mean and standard deviation of the abstract node count per class;
    {!abs_links} likewise for links. *)

val abs_links : summary -> float * float
val mean_time_per_ec : summary -> float

val roles :
  ?keep_unmatched_comms:bool -> Device.network -> int
(** Number of unique router "roles": routers are identified by the vector
    of their interface policies — import/export route-maps compared
    semantically as BDDs — plus their static routes, ACLs, OSPF interface
    configuration and redistributions. Reproduces the paper's role
    counts (§8: 112 naive vs 26 semantic roles on the datacenter). *)

val explain :
  Device.network -> Ecs.ec -> int -> int -> string list
(** [explain net ec u v] — why two routers ended up in different roles for
    this destination class: human-readable differences between their
    (signature, neighbor-role) sets (policy inequality, ACLs, OSPF costs,
    static routes, preference levels, or differing neighbor roles). Empty
    when the two routers share a role. *)

val pp_degradation : Format.formatter -> degradation -> unit
(** The degradation report: phase reached, work ticks consumed (plus the
    exhaustion note, e.g. the partition size the refinement loop got to),
    and how many classes were compressed before the fallback. Elapsed
    wall-clock is deliberately omitted — the report is deterministic for a
    deterministic budget. *)

val fallback_to_string : fallback -> string
(** ["none"], ["budget"] or ["rounds"]. *)

val degradation_to_json : degradation option -> Json.t
(** [null], or the [completed] and [total] class counts (the budget phase
    and ticks stay in {!pp_degradation}). *)

val summary_json_fields :
  ?roles:bool ->
  summary ->
  (string * Json.t) list
(** The document of [bonsai compress --format json] and of serve's
    [compress] op: concrete [nodes] and [links], [ecs],
    [skipped_anycast], [degraded] (some row fell back to the identity),
    [degradation], and one [classes] row per class ([destination],
    [abstract_nodes], [abstract_links], [degraded], and with [roles]
    (one named class) its [roles]: [id], [copies], [members], none for a
    degraded row). No wall-clock or BDD counters, so a warm answer equals
    a cold one. *)

val pp_summary : Format.formatter -> summary -> unit
(** Sizes and compression ratios, no wall clock; appends
    {!pp_degradation} when the summary is degraded. *)
