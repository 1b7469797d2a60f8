(** Compilation of a configured network into per-destination SRP instances,
    plus the per-edge data the abstraction algorithm consumes. *)

val matched_comms : Device.network -> int -> bool
(** Communities some route-map in the network matches on; the community
    tie-break of compiled SRPs is restricted to these, so route ranking
    commutes with the attribute abstraction. *)

type group = { members : int list; label : string }
(** A group of an abstraction ([Abstraction.make]): its members,
    ascending, and the name of its abstract node (with one copy). *)

val group_table : Device.network -> (int, group list) Hashtbl.t
(** The network's groups so far, keyed by a hash of their members, so
    every row of the network with the same members holds one copy of the
    list. The table lives as long as the network's other cached facts:
    per domain, for the last two networks compiled. *)

val bgp_policy : Device.network -> dest:Prefix.t -> int -> int -> Bgp.policy
(** [bgp_policy net ~dest u v] is the executable policy for routes received
    at [u] from [v]: [v]'s export route-map, then [u]'s import route-map,
    with the route dropped when BGP is not configured on both ends or when
    [u]'s outbound ACL towards [v] denies the destination.

    Compiled, not interpreted: [bgp_policy net ~dest] specializes the
    network's route maps and ACLs to [dest] (each distinct one once, on
    first use), and [bgp_policy net ~dest u v] resolves the edge, so the
    policy itself only reads arrays. Apply it partially when policies of
    many edges are needed. A pair that is not an edge of [net.graph]
    drops every route.

    The destination-independent per-edge tables (sessions, OSPF links,
    interned maps and ACLs) are built once per network and kept for the
    two most recently used networks of each domain, recognized by
    physical equality: a network must not be mutated after it is first
    compiled. *)

val bgp_srp : Device.network -> dest:int -> dest_prefix:Prefix.t -> Bgp.attr Srp.t
(** Single-protocol eBGP network (the synthetic evaluation networks),
    with the compiled {!bgp_policy}. *)

val origin_protocols : Device.network -> int -> Multi.proto list
(** The protocols node [origin] announces a destination into: eBGP if it
    has BGP neighbors, OSPF if it has OSPF interfaces, eBGP as a fallback
    when it has neither. Exactly the origination rule of {!multi_srp};
    the flow analysis seeds its origin facts with it. *)

val multi_srp :
  Device.network -> dest:int -> dest_prefix:Prefix.t -> Multi.attr Srp.t
(** Multi-protocol network: eBGP/iBGP per BGP neighbor configs, OSPF per
    interface configs, static routes covering the destination, and
    redistribution (paper §6). The destination originates into the
    protocols under which it is configured (BGP if it has any BGP
    neighbor, OSPF if it has any OSPF interface). Built by
    {!Multi.of_edges} from the per-network tables (see {!bgp_policy})
    plus this destination's static routes and compiled policies.
    @raise Invalid_argument on a static route to a non-adjacent next
    hop. *)

type 'a model = Bgp : Bgp.attr model | Multi : Multi.attr model
type any_model = Model : 'a model -> any_model

val model : Device.network -> any_model
(** The network's routing model, chosen by its configuration alone and
    only here, so every client solves the same SRP: [Multi] iff some
    router configures OSPF interfaces, static routes or redistribution;
    [Bgp] otherwise, where both SRPs compile every class to the same
    forwarding (a fuzz property of the test suite). *)

val srp :
  'a model -> Device.network -> dest:int -> dest_prefix:Prefix.t -> 'a Srp.t
(** The class's SRP under the model: {!bgp_srp} or {!multi_srp}. *)

val prefs : Device.network -> dest:Prefix.t -> int -> int list
(** [prefs net ~dest v] — the paper's [prefs(v)] (§4.3): the set of BGP
    local-preference values that may be assigned to an announcement at
    node [v], i.e. the default plus any value set by a reachable clause of
    one of [v]'s import route-maps. Sorted ascending. *)

type edge_signature = {
  sig_import : int;
      (** BDD id of [u]'s import route-map on the interface from [v]
          ([-1]: BGP not configured on the edge) *)
  sig_export : int;
      (** BDD id of [u]'s export route-map on the interface towards [v] *)
  sig_ibgp : bool;
  sig_acl : bool;  (** [u]'s outbound ACL towards [v] permits the dest *)
  sig_ospf : (int * int * int) option;
      (** receiver-side cost, receiver area, sender area; always [None]
          when {!ospf_live} is false for the destination — inert link
          state must not over-refine the abstraction *)
  sig_static : bool;  (** receiver has a static route for [dest] via sender *)
}
(** The signature of the directed edge [(u, v)]: everything [u]'s own
    configuration contributes to the transfer functions touching that
    interface. The refinement loop groups nodes by their multiset of
    (signature, neighbor) pairs; keying on {e both} the import and export
    side is what makes two merged nodes interchangeable for every adjacent
    transfer function (each contributes its import to routes it receives
    and its export to routes its neighbors receive). *)

val signature_equal : edge_signature -> edge_signature -> bool
(** Field-wise equality, without the polymorphic compare. *)

val ospf_live : Device.network -> dest:Prefix.t -> bool
(** Whether OSPF can carry [dest] at all: some router redistributes, or
    an originator of [dest] has OSPF interfaces (the [origin_protocols]
    rule of {!multi_srp}). A whole-network property, not a per-edge one:
    the incremental engine must see it unchanged across a delta before it
    trusts signature locality and reuses untouched classes. *)

(** {1 Class keys} *)

val class_key : Device.network -> dest:int -> dest_prefix:Prefix.t -> int
(** [class_key net ~dest ~dest_prefix]: the class's behaviour, as an id
    interned per network (kept beside the per-network tables of
    {!bgp_policy}, memoised per class). It is built only from what the
    class's SRP ({!srp}), its class FIB and its abstraction read for one
    destination: the origin [dest], the {!ospf_live} bit, each route
    map's {!Route_map.compile}d form (identity, drop, or its
    {!Route_map.relevant} clauses, kept whole when they assign a local
    preference, which {!prefs} reads), each ACL's verdict on
    [dest_prefix], and each router's non-empty static next hops. So two
    classes with equal keys have the same concrete SRP, the same
    abstraction up to [dest_prefix] and the same class FIB up to its
    prefix, and the pipelines compute each of them once per key. A class
    whose origin announces no other prefix can share its key with no
    other class; it gets the negative key [-1 - dest] without building
    or storing a vector. *)

type shared = ..
(** What a client keeps per key (the data plane keeps class FIBs). *)

val kept : Device.network -> int -> shared list
(** What {!keep} last stored for this key, [[]] at first. *)

val keep : Device.network -> int -> shared list -> unit
(** Store per key, beside the network's tables (dropped with them). A
    no-op while at most one class keyed so far has this key: a key no
    other class shares keeps nothing. *)

type signature_table = {
  universe : Policy_bdd.universe;  (** the universe the BDD ids live in *)
  sid : int -> int;
      (** [sid e]: the signature id of the directed edge with id [e] (see
          {!Graph.edge_index}) *)
  signature : int -> edge_signature;
      (** the signature of an id returned by [sid], or of [no_edge] *)
  bound : int;  (** every id is below [bound] *)
  no_edge : int;
      (** the id of an unconfigured interface's signature (no session,
          OSPF link or static route; ACL permits): the signature of a
          pair that is not an edge *)
}
(** One destination's edge signatures as dense ints. Within one table,
    two ids are equal iff their signatures are {!signature_equal}, so
    refinement keys on ints and never compares or hashes a record. *)

val signature_table :
  ?universe:Policy_bdd.universe ->
  ?rm_bdd:(Route_map.t option -> Bdd.t) ->
  Device.network ->
  dest:Prefix.t ->
  signature_table
(** The signature table of [dest], sharing one BDD universe (default: a
    fresh one for [net]).

    Signatures are computed per edge {e kind}, not per edge: the
    per-network edge tables of {!bgp_policy} intern every directed edge
    by the facts a signature reads apart from static routes (session and
    iBGP flag, import and own export map, ACL, OSPF link and cost, and on
    an OSPF link both endpoints' areas). A kind's signature is built and
    interned on the first [sid] of one of its edges; the only per-edge
    entries are the edges along which the receiver has a static route to
    [dest] ({!Device.static_next_hops}, resolved when the table is made).
    So [bound] is the number of kinds plus static edges plus one, and a
    table builds at most that many records.

    [rm_bdd] (default: encode in the universe) supplies the BDD of a
    route-map ([None] = permit-all), specialized to [dest]; it must
    encode against the same universe. It is called lazily, at most once
    per distinct route map (and once for [None]) per table, when the
    first signature that reads it is built. The incremental engine
    passes a cache that persists across recompressions, so its hits
    count only reuse across calls: the signatures of untouched devices
    in later recompressions. *)

val edge_key : signature_table -> Graph.t -> int -> int -> int
(** [edge_key t g u i]: the refinement key ({!Refine.partition}) of [u]'s
    [i]-th out-edge in [g], its own and its reverse edge's ids as one
    pair code ([no_edge] for the reverse of a one-way edge), memoised per
    edge. Raises [Invalid_argument] when [bound² · n] would overflow. *)

val edge_signatures :
  ?universe:Policy_bdd.universe ->
  ?rm_bdd:(Route_map.t option -> Bdd.t) ->
  Device.network ->
  dest:Prefix.t ->
  Policy_bdd.universe * (int -> int -> edge_signature)
(** A record view of {!signature_table}: [signature u v] is the signature
    of the edge [(u, v)], built lazily per kind, and a pair that is not an
    edge of [net.graph] gets the unconfigured interface's. Equal
    signatures are returned as one shared value. Returns the universe for
    reuse across destinations. No production path calls it: it stays as
    the test oracles' reference and for perfbench's traced replay. *)
