(** Abstraction refinement (paper §5, Algorithm 1).

    Starting from the coarsest partition (destination alone, everything
    else together), repeatedly split classes whose members disagree on
    their multiset of (interface signature, neighbor) pairs. The neighbor
    is taken {e abstractly} ([f v]) for classes whose members use a single
    BGP local-preference value (the ∀∃ case) and {e concretely} ([v]) for
    classes with several (the ∀∀ case needed to bound BGP loop-prevention
    behaviors, §4.3).

    Classes may keep internal edges (e.g. the non-destination class of a
    full mesh): the corresponding abstract self-loop is {e omitted} from
    the abstract topology rather than split away. This matches the paper's
    own full-mesh result (2 nodes, 1 edge, Table 1) and is sound because a
    self-loop transfer can never be chosen: BGP's loop prevention rejects
    the re-entrant path outright, and the monotone metrics of RIP/OSPF
    make the self-offer strictly worse than the route it was derived
    from. *)

type stats = {
  iterations : int;  (** classes popped from the worklist *)
  splits : int;  (** total class splits performed *)
  keyed : int;
      (** member keys evaluated: deterministic, and O(E log V) by the
          smaller-half rule *)
}

val partition :
  ?live_self:(int -> int -> bool) ->
  ?pinned:int list ->
  ?seed:Union_split_find.t ->
  ?budget:Budget.t ->
  Device.network ->
  dest:int ->
  edge_key:(int -> int -> int) ->
  prefs:(int -> int list) ->
  Union_split_find.t * stats
(** Computes the refined partition. [edge_key u i] is the key of [u]'s
    [i]-th out-edge [(u, v)]: a non-negative int, equal for two edges iff
    their [(signature u v, signature v u)] pairs are equal. The key
    includes {e both} directions because a node is also characterized by
    how its neighbors treat routes from it.
    {!Compile.edge_key} builds it from {!Compile.signature_table} ids.
    Keys times the node count must stay below [max_int]. [prefs u]
    are the local-preference values assignable at [u] ({!Compile.prefs}).
    [live_self u v] (default: never) marks edges whose transfer does not
    depend on the neighbor's label — static routes; classes containing
    such an internal edge are split, because those self-loops cannot be
    dropped as dead.

    [pinned] (default none) seeds the partition with forced singleton
    classes: each pinned node is split out before refinement starts and —
    because refinement only ever splits — stays a singleton in the
    result. Pinning is monotone: a superset of pins produces a (weakly)
    finer partition, so a repair loop that only grows its pin set
    terminates at the discrete partition in the worst case.

    [seed] (default: the coarsest partition, destination split out)
    starts the fixpoint from an existing partition instead — the seed is
    refined {e in place} and returned. Because the loop only splits, the
    result is the coarsest {e stable} partition refining the seed: equal
    to the from-scratch partition whenever the seed is coarser than it,
    and otherwise a sound over-refinement that the incremental engine
    (lib/incr) coarsens back with a quotient-level merge pass. The
    destination and any [pinned] nodes are split out of the seed if not
    already alone.

    [budget] (default infinite) is consumed one tick per worklist
    iteration; on exhaustion [Budget.Exhausted] is re-raised with a note
    recording how many classes the partition had reached — the payload of
    the CLI's degradation report. *)

val find_partition :
  ?live_self:(int -> int -> bool) ->
  ?pinned:int list ->
  ?seed:Union_split_find.t ->
  ?budget:Budget.t ->
  Device.network ->
  dest:int ->
  signature:(int -> int -> 'k) ->
  prefs:(int -> int list) ->
  Union_split_find.t * stats
(** {!partition} for any signature function: [signature u v] is the
    directed-edge signature ({!Compile.edge_signatures}, or any type
    compared and hashed structurally). An adapter: each edge's
    [(signature u v, signature v u)] pair is evaluated once, on first
    use, and interned to an int [edge_key] through polymorphic hash
    tables. No production path calls it: it stays as the test oracles'
    reference and for perfbench's traced replay. *)

val stabilise :
  ?budget:Budget.t ->
  phase:string ->
  Union_split_find.t ->
  succ:(int -> int array) ->
  pred:(int -> int array) ->
  edge_key:(int -> int -> int) ->
  concrete:(int list -> bool) ->
  live_self:(int -> int -> bool) ->
  stats
(** The refinement kernel behind {!partition}, on any (multi)graph
    over the partition's elements: [succ u] are [u]'s out-neighbors,
    [edge_key u i] the interned signature of its [i]-th out-edge, and
    [pred v] every [u] with [v] in [succ u]. Refines the partition in
    place to the coarsest stable refinement, where an element's key is
    its set of [(edge_key, neighbor class)] pairs — or
    [(edge_key, neighbor)] in a class for which [concrete members]
    holds, decided once, when the class is first examined. Then peels
    [live_self] edges as {!partition} describes — the smallest
    offending member of the first offending class by smallest member —
    and refines again.

    Every class starts queued and is keyed in full once. After that, a
    split re-keys only the predecessors of the members of its fresh
    classes, and the largest part keeps the old id, so a member is
    re-keyed O(log V) times per in-edge. Consumes one [phase] tick per
    worklist pop. *)

val group_prefs : prefs:(int -> int list) -> int list -> int list
(** Union of [prefs] over the members of a class — the paper's
    [prefs(û)]. *)

val quotient_merge :
  Union_split_find.t ->
  Device.network ->
  dest:int ->
  edge_key:(int -> int -> int) ->
  pinned:int list ->
  budget:Budget.t ->
  Union_split_find.t
(** The merge half of the seeded path (DESIGN.md §12), coarsening a
    stable over-refinement: refine the quotient (one element per class,
    key from a representative, [edge_key] as in {!partition}) with
    {!stabilise} and return the
    partition whose classes are the unions of classes sharing a quotient
    block. [Bonsai_api.compress_ec_exn ~seed] runs it after
    [partition ~seed], which turns the stale partition the incremental
    engine seeds with into the exact from-scratch partition. *)
