(** Network abstractions (paper §4): the result of compression for one
    destination equivalence class.

    An abstraction partitions the concrete nodes into {e groups} with
    equal transfer behavior; each group becomes one abstract node — except
    groups whose members use several BGP local-preference values, which
    are split into [min(|prefs|, |members|)] abstract {e copies} (the
    intermediate network [SRP‾] of §4.3: the concrete-to-copy mapping is
    solution-dependent). The abstract topology has an edge between two
    abstract nodes iff some pair of their concrete members is adjacent. *)

type t = {
  net : Device.network;
  dest : int;
  dest_prefix : Prefix.t;
  group_of : int array;  (** concrete node -> group id *)
  groups : int list array;  (** group id -> sorted members *)
  copies : int array;  (** group id -> number of abstract copies, >= 1 *)
  abs_of_group : int array;  (** group id -> first abstract node id *)
  group_of_abs : int array;  (** abstract node id -> its group *)
  abs_graph : Graph.t;
  abs_dest : int;
  universe : Policy_bdd.universe;
}

val make :
  Device.network ->
  dest:int ->
  dest_prefix:Prefix.t ->
  universe:Policy_bdd.universe ->
  partition:Union_split_find.t ->
  copies:(int -> int) ->
  t
(** Build the abstract network from a refined partition. [copies] gives
    the number of abstract copies for a partition class (keyed by a member
    node); classes containing the destination always get one copy.
    Concrete edges between members of one group produce no abstract
    self-loop (they are dead transfers — see {!Refine}); between copies of
    a split group they become inter-copy edges. *)

val identity :
  Device.network ->
  dest:int ->
  dest_prefix:Prefix.t ->
  universe:Policy_bdd.universe ->
  t
(** The identity abstraction: the discrete partition (every node its own
    group, one copy each), so the abstract network {e is} the concrete
    network. Trivially sound — it is the degradation fallback when
    compression runs out of budget. *)

val identity_family :
  Device.network ->
  universe:Policy_bdd.universe ->
  dest:int ->
  dest_prefix:Prefix.t ->
  t
(** [identity_family net ~universe] is a constructor of per-destination
    identity abstractions that builds the (concrete-sized) skeleton only
    once and stamps [dest]/[dest_prefix]/[abs_dest] per call — a degraded
    [compress] over many destination classes is O(network) once, not per
    class. *)

val is_identity : t -> bool
(** Every group is a singleton (hence one copy each): the abstract
    network is the concrete network. Holds for {!identity} and for any
    refinement that pinned every node (see {!Refine.partition}). *)

val f : t -> int -> int
(** The topology abstraction [f] on nodes (for split groups: the first
    copy; the per-solution refinement picks actual copies). *)

val n_abstract : t -> int
val members_of_abs : t -> int -> int list
val repr_of_abs : t -> int -> int
(** The least concrete member, used as the group representative. *)

val node_image : t -> int -> int list
(** Every abstract copy of the node's group. Failing a concrete node is
    modeled (conservatively) by failing all of them; with one copy this is
    just [[f t u]]. *)

val link_image : t -> int * int -> (int * int) list
(** The abstract edges standing for a concrete edge [(u, v)]: all
    copy-pairs of the two groups that are adjacent in the abstract
    topology. Empty for intra-group links (they have no abstract
    counterpart). An abstract edge represents {e every} concrete edge
    between the two groups, so failing the image of one concrete link fails
    more than that link — exactly the lossiness {!Soundness} (lib/faults)
    measures per failure scenario (paper §9 limitation). *)

val repr_edge : t -> int -> int -> int * int
(** [repr_edge t û v̂] is a concrete edge [(u, v)] with [u 7→ û], [v 7→ v̂]
    (groups taken up to copies). @raise Not_found if no such edge.
    Rebuilds the representative table on every call — use
    {!edge_repr_fun} for repeated lookups. *)

val edge_repr_fun : t -> int -> int -> int * int
(** Memoized {!repr_edge}: builds the representative table once and
    returns the lookup closure. @raise Not_found as {!repr_edge}. *)

val h_attr : t -> fr:(int -> int) -> Bgp.attr -> Bgp.attr
(** The attribute abstraction [h] for BGP (§4.3 and §8):
    [(lp, tags, path) ↦ (lp, tags − unused, fr(path))] — communities
    outside the BDD universe are erased, the AS path is mapped node-wise
    through the given node mapping (usually {!f}, or a solution-specific
    refinement). *)

val bgp_srp : t -> Bgp.attr Srp.t
(** The abstract BGP SRP: policies are taken from representative concrete
    edges (sound by transfer-equivalence of the refined partition). *)

val multi_srp : t -> Multi.attr Srp.t
(** The abstract multi-protocol SRP, mapping each protocol's per-edge
    configuration through representative edges. *)

val srp : 'a Compile.model -> t -> 'a Srp.t
(** The abstract SRP under the concrete network's model
    ({!Compile.model}): {!bgp_srp} or {!multi_srp}. *)

val compression_ratio : t -> float * float
(** (node ratio, edge ratio): concrete size over abstract size, counting
    undirected links. *)

val pp_summary : Format.formatter -> t -> unit
