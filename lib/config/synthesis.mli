(** Synthetic configured networks for the paper's evaluation (§8).

    The synthetic networks (fattree / ring / full mesh) follow the paper
    exactly: eBGP shortest-path routing with destination-based prefix
    filters. The two "operational" networks are synthetic stand-ins for the
    paper's proprietary datacenter and WAN (see DESIGN.md): the generators
    reproduce the published topology style, protocol mix, and role
    diversity, which are the quantities compression depends on. *)

val prefix_of_index : int -> Prefix.t
(** [prefix_of_index i] is the /24 [10.x.y.0/24] with [x = i / 256] and
    [y = i mod 256]; the prefix originated by the [i]-th origin. *)

val ebgp_shortest_path :
  ?originators:int list -> Graph.t -> Device.network
(** Every router speaks eBGP with every topology neighbor with a
    destination-prefix filter permitting the experiment's address space;
    routers in [originators] (default: all) originate one /24 each. *)

val fattree_shortest_path : Generators.fattree -> Device.network
(** The paper's fattree workload: shortest-path eBGP, only edge (ToR)
    routers originate prefixes. *)

val fattree_prefer_bottom : Generators.fattree -> Device.network
(** Figure 11's second policy: aggregation routers prefer routes learned
    from the edge tier (import local-preference 200), giving middle-tier
    routers two possible behaviors and a larger abstraction. *)

val ring_bgp : n:int -> Device.network
val mesh_bgp : n:int -> Device.network

type real_network = {
  net : Device.network;
  description : string;
}

val datacenter : unit -> real_network
(** 197 routers in Clos-like clusters plus a core layer, eBGP + static
    routes, ACLs, community tagging (many tags attached but never matched,
    reproducing the paper's 112-naive-roles vs 26-semantic-roles gap),
    ~1269 originated prefixes. *)

val wan : unit -> real_network
(** 1086 devices: backbone (eBGP + iBGP pairs) and 31 PoPs running OSPF
    with redistribution into BGP, static routes on some access routers,
    neighbor-specific prefix filters creating ≈137 roles, ~845 originated
    prefixes. *)

val random_network : n:int -> seed:int -> Device.network
(** Random connected topology with route-maps drawn from a small policy
    pool (community tagging upstream, preference bumps downstream) and a
    single originated prefix at node 0. Drives the property-based
    CP-equivalence tests. *)

val random_multi_network : n:int -> seed:int -> Device.network
(** Random connected topology running a protocol mix: a BGP "core" region
    and an OSPF "edge" region with redistribution at the border, plus
    occasional static routes — exercising the §6 multi-protocol model in
    the property-based tests. Node 0 originates one prefix. *)

val multiwan : regions:int -> region_size:int -> real_network
(** Multi-region WAN: [regions] regions of [region_size] eBGP routers
    (two gateways plus access routers with neighbor-specific import
    filters, region [k] originating 10.k.0.0/16) stitched by a core ring
    that originates the external aggregate 10.254.0.0/16. Raises [Invalid_argument] unless
    [1 <= regions <= 250] and [region_size >= 3]. *)

val of_spec :
  string ->
  ( Device.network * Config_text.loc_table option,
    [ `Unknown of string | `Parse of (int * string) list ] )
  result
(** Resolves a network spec: [fattree:K], [fattree-prefer:K], [ring:N],
    [mesh:N], [random:N[:SEED]], [multiwan:R:S], [datacenter], [wan]
    or [file:PATH], where PATH is a file or a directory of them (see
    {!Config_text.load}). Only a [file:] network carries a source
    location table. [`Unknown] holds the message naming the accepted
    forms, or, for a size its generator refuses ([fattree:3], [ring:2]), the
    generator's message; [`Parse] the file's diagnostics. A generated
    network of more than 100,000 nodes and links ([mesh:447]) is refused
    with [`Unknown] from the spec's numbers, before it is built. *)
