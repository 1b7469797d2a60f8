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
      (** [true] when compression ran out of budget and this class fell
          back to the identity abstraction (see {!Abstraction.identity}) *)
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
      (** [Some _] iff any class fell back to the identity abstraction *)
}

val effective_prefs : Device.network -> Ecs.ec -> int -> int list
(** The preference levels refinement must account for at a node:
    {!Compile.prefs} plus, in multi-protocol networks, a [-1] sentinel
    level when administrative distance can demote the node from BGP to a
    redistributed OSPF/static route (the asymmetry needs the same ∀∀
    treatment as local preference, §4.3). Exposed so the incremental
    engine (lib/incr) computes the exact same levels as [compress_ec]. *)

val compress_ec :
  ?universe:Policy_bdd.universe ->
  ?rm_bdd:(Route_map.t option -> Bdd.t) ->
  ?pinned:int list ->
  ?budget:Budget.t ->
  Device.network ->
  Ecs.ec ->
  (ec_result, Bonsai_error.t) result
(** Compress one destination class. Never raises: an exhausted [budget]
    (default infinite; also installed on the universe's BDD manager for
    the duration of the call) is [Error (Budget_exceeded _)], an anycast
    class is [Error (Compile_error _)].

    [pinned] forces the listed concrete nodes into singleton partition
    classes before refinement (see {!Refine.find_partition}); the CEGAR
    repair loop uses it to carve fault-suspect nodes out of merged
    groups.

    [rm_bdd] is threaded to {!Compile.edge_signatures}: the incremental
    engine's policy-signature cache ([Sig_cache] in lib/incr) supplies
    it so route-maps of untouched devices are never re-encoded. It must
    encode against [universe]. *)

val compress_ec_exn :
  ?universe:Policy_bdd.universe ->
  ?rm_bdd:(Route_map.t option -> Bdd.t) ->
  ?pinned:int list ->
  ?budget:Budget.t ->
  Device.network ->
  Ecs.ec ->
  ec_result
(** Like {!compress_ec} but raising: [Budget.Exhausted] on exhaustion,
    [Invalid_argument] on an anycast class.

    The incremental recompression API lives in lib/incr ([Incr.init] /
    [Incr.recompress]) — it cannot be defined here because lib/incr
    depends on this library. *)

val role_partition :
  ?budget:Budget.t ->
  Device.network ->
  Ecs.ec ->
  (int array, Bonsai_error.t) result
(** The compressed role partition for one destination class: index [r]
    is router [r]'s group id (routers sharing an id share one abstract
    node). A thin wrapper over {!compress_ec} for consumers that only
    need the grouping — [bonsai flow --facts] prints provenance facts per
    role instead of per router through this. *)

val compress :
  ?keep_unmatched_comms:bool ->
  ?stride:int ->
  ?max_ecs:int ->
  ?domains:int ->
  ?budget:Budget.t ->
  Device.network ->
  (summary, Bonsai_error.t) result
(** Compress every destination class. For sampling large networks,
    [stride] keeps every k-th class and [max_ecs] caps how many are
    processed. [keep_unmatched_comms] selects the naive attribute
    abstraction (see {!Policy_bdd.universe_of_network}). [domains] > 1
    processes classes in parallel on that many OCaml domains (destination
    classes are disjoint, exactly the parallelism the paper exploits, §7);
    each domain owns a private BDD manager.

    With a finite [budget], classes are processed {e sequentially}
    (ignoring [domains], which would share the single budget token) and
    exhaustion degrades gracefully instead of failing: the class that ran
    out and every remaining class fall back to the identity abstraction
    (marked [degraded]; always sound — the abstract network is the
    concrete network, just without any compression benefit), and
    [summary.degradation] records where the budget went. [Error] is
    reserved for non-budget failures. *)

val compress_exn :
  ?keep_unmatched_comms:bool ->
  ?stride:int ->
  ?max_ecs:int ->
  ?domains:int ->
  ?budget:Budget.t ->
  Device.network ->
  summary
(** Like {!compress} but unwrapped (budget exhaustion still degrades
    rather than raising). *)

(** {1 Fault-sound compression (counterexample-guided repair)} *)

type hardened = {
  h_result : ec_result;
      (** the final abstraction; [degraded] iff a fallback fired *)
  h_rounds : int;
      (** soundness sweeps completed (0 if the budget died first) *)
  h_pins : int list;
      (** concrete nodes forced into singleton classes, sorted *)
  h_counterexamples : int;  (** 1-minimal failing scenarios consumed *)
  h_scenarios : int;  (** scenario checks across all sweeps *)
  h_cache_hits : int;  (** re-solves avoided by the scenario cache *)
  h_fallback : fallback;
  h_sound : bool;
      (** the final sweep found no mismatch (always true for fallbacks —
          the identity abstraction is sound by construction; [false] only
          when repair was disabled and a counterexample survived) *)
}

and fallback =
  | No_fallback
  | Budget_fallback of Budget.info
      (** the budget ran out mid-repair: identity abstraction returned *)
  | Rounds_fallback
      (** the retry count ran out: identity abstraction returned *)

type fault_sound_fn =
  ?k:int ->
  ?rounds:int ->
  ?frontier:int ->
  ?samples:int ->
  ?seed:int ->
  ?budget:Budget.t ->
  Device.network ->
  Ecs.ec ->
  (hardened, Bonsai_error.t) result

val compress_fault_sound : fault_sound_fn
(** Compression that is sound under failures, not just for the intact
    topology: compress, sweep failure scenarios up to [k] downed links
    through the soundness check, and on a mismatch pin the disagreeing
    nodes and re-refine, iterating until the sweep is clean (CEGAR). On
    budget or round exhaustion the result degrades to the identity
    abstraction — sound, compression ratio 1 — rather than ever returning
    an unsound artifact. Implemented by [Repair.harden] (lib/repair),
    which registers itself here at link time; executables that do not
    link [repro_repair] get [Error (Internal _)]. See {!Repair} for
    parameter semantics and the per-round trace. *)

val register_fault_sound : fault_sound_fn -> unit
(** Install the implementation (called by [Repair] at module
    initialization; not meant for end users). *)

val hardened_ratio : hardened -> float * float
(** (node ratio, edge ratio) of the final abstraction, as
    {!Abstraction.compression_ratio}. *)

(** {1 Reporting} *)

val mean_abs_nodes : summary -> float
val mean_abs_links : summary -> float
val stddev_abs_nodes : summary -> float
val stddev_abs_links : summary -> float
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

val ec_result_json_fields : ec_result -> (string * Json.t) list
(** One compressed class as a JSON row for the CLI and the resident
    engine: [destination], [abstract_nodes], [abstract_links],
    [degraded]. *)

val pp_summary : Format.formatter -> summary -> unit
(** Appends {!pp_degradation} when the summary is degraded. *)
