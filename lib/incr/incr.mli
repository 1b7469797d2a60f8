(** Incremental compression engine: delta-driven abstraction maintenance.

    [init] compresses a network once and keeps the state alive; on each
    [recompress] the engine applies a list of {!Delta.t}s and brings every
    destination class's abstraction up to date while doing as little work
    as the change allows:

    - {e reuse}: classes none of whose refinement inputs changed (no
      topology delta, no edge-signature change incident to a touched
      router, preference levels and origin untouched) keep their old
      result verbatim;
    - {e seeded}: classes whose preference structure is trivial (every
      router at the default local preference, no static routes for the
      destination) re-refine starting from the {e old} partition — a
      split-only fixpoint reaches the coarsest stable refinement of the
      old partition, and a quotient-level refine-and-merge pass coarsens
      it back to exactly the from-scratch partition
      ([Bonsai_api.compress_ec_exn ~seed]; see DESIGN.md §12 for the proof
      sketch);
    - {e scratch}: everything else recomputes, still sharing the
      policy-signature cache ({!Sig_cache}) so unchanged route-maps are
      never re-encoded;
    - {e full rebuild}: node additions/removals renumber the id space and
      attribute-universe changes invalidate cached BDDs — all classes
      recompute against a fresh cache.

    Every path is a worker of the one loop that compresses a network's
    classes ([Bonsai_api.compress_classes]): it runs once per
    {!Compile.class_key}, on the first class of the key, and every later
    class of the key takes that row under its own prefix. Budget
    exhaustion degrades through the same loop: the class that ran out
    and every remaining class fall back to the identity abstraction. *)

type state

type report = {
  r_ecs : int;  (** single-origin destination classes after the change *)
  r_reused : int;
      (** classes that got a row without a kernel run: their old result
          reused verbatim, or an earlier class's row of the same
          {!Compile.class_key}. [r_reused + r_seeded + r_scratch] is
          [r_ecs] (after a budget cut, the classes completed before it),
          and [r_seeded + r_scratch] counts the kernel runs *)
  r_seeded : int;  (** classes re-refined from the surviving partition *)
  r_scratch : int;  (** classes recomputed from scratch (cache-backed) *)
  r_full_rebuild : bool;
      (** node set or attribute universe changed: cache rebuilt, every
          class recomputed *)
  r_cache_hits : int;  (** {!Sig_cache} hits during this recompression *)
  r_cache_misses : int;
  r_time_s : float;  (** wall-clock for the whole recompression *)
  r_degradation : Bonsai_api.degradation option;
}

val init :
  ?budget:Budget.t -> Device.network -> (state, Bonsai_error.t) result
(** Compress from scratch and set up the cache. *)

val recompress :
  ?budget:Budget.t ->
  state ->
  Delta.t list ->
  (report, Bonsai_error.t) result
(** Apply the deltas and update every class's abstraction. The state is
    mutated only on success; on [Error] it still describes the previous
    network. An invalid delta (unknown router, duplicate link, ...) or a
    post-change network failing [Device.validate] is a [Compile_error].

    The engine audits nothing itself: the independent checker
    (lib/certify) certifies the whole {!summary} it leaves, once per
    class, under [diff --certify] and serve's [audit]. *)

val recompress_net :
  ?budget:Budget.t ->
  state ->
  Device.network ->
  (Delta.t list * report, Bonsai_error.t) result
(** [recompress_net st net'] diffs the current network against [net'] and
    recompresses; returns the deltas it derived. The state then holds
    [net'] itself, router numbering included (the solver breaks ties by
    node id). The engine of [diff] and [watch], in the CLI and serve. *)

val copy : state -> state
(** A shallow copy that recompresses independently: {!recompress} on it
    leaves the original describing its own network, so a caller can
    keep the original when the recompressed copy degraded. The two share
    the signature cache, whose entries stay valid for either. *)

val network : state -> Device.network

val sig_cache : state -> Sig_cache.t
(** The state's policy-signature cache, for read-only composition: the
    data-plane differ ({!Dp_diff} in lib/dataplane) proves classes
    untouched through the same cache so BDD ids stay comparable. *)

type reuse = {
  compatible : bool;
      (** the cache is {!Sig_cache.compatible} with both networks *)
  full_rebuild : bool;
      (** a node-level delta, an incompatible cache, or routers numbered
          differently ({!Delta.id_map}): the solver breaks ties between
          equally good routes by node order, so a renumbered network may
          forward differently under equal configurations *)
  unchanged : old:Ecs.ec -> Ecs.ec -> bool;
      (** [unchanged ~old ec]: the class [ec] keeps the stable solution
          (and so the FIB: ACLs are part of the edge signature) of the
          old network's class [old] of the same prefix. False under a
          full rebuild or a topology delta; otherwise true iff the
          origins are equal, the destination is untouched, the class's
          OSPF-liveness is stable, and every edge at a router a delta
          touches has equal preference levels and signatures, read
          through the one cache. *)
}

val reuse :
  cache:Sig_cache.t ->
  old_net:Device.network ->
  new_net:Device.network ->
  Delta.t list ->
  reuse
(** The class-reuse decision for [deltas] taking [old_net] to [new_net]:
    the one {!recompress} and the data-plane differ ({!Dp_diff} in
    lib/dataplane) both take. *)

val summary : state -> Bonsai_api.summary
(** The maintained per-class results, shaped like a fresh
    [Bonsai_api.compress] summary (times are those of the computation
    that produced each surviving result). *)

val cache_stats : state -> int * int
(** Cumulative (hits, misses) of the policy-signature cache. *)

val rearm : state -> unit
(** Reset every transient resource handle after the state was read back
    from a checkpoint (Marshal): re-installs the shared
    [Budget.infinite] in each BDD manager, whose marshaled copy lost the
    physical identity the fast-path check relies on. Call exactly once on
    a freshly unmarshaled state; a no-op on states built by {!init}. *)

val bdd_stats : state -> Bdd.stats

val report_json_fields :
  deltas:Delta.t list -> report -> (string * Json.t) list
(** The document of [bonsai diff --format json], of [bonsai watch]'s
    [recompress] events and of serve's [diff] op: [identical], the
    [deltas] count and [delta_list], [ecs], [reused], [seeded],
    [scratch], [full_rebuild], [degraded] and [degradation]. No wall-clock or cache
    counters, which a warm engine reports differently. *)
