let bgp_policy (net : Device.network) ~dest u v : Bgp.policy =
 fun a ->
  let ru = net.routers.(u) and rv = net.routers.(v) in
  match (Device.bgp_neighbor_config ru v, Device.bgp_neighbor_config rv u) with
  | Some imp, Some exp ->
    if not (Acl.permits (Device.acl_for ru v) dest) then None
    else
      let eval rm a =
        match rm with
        | None -> Some a
        | Some rm -> Route_map.eval rm ~dest a
      in
      Option.bind (eval exp.export_rm a) (eval imp.import_rm)
  | _ -> None

let matched_comms (net : Device.network) =
  let set = Hashtbl.create 32 in
  let scan = function
    | None -> ()
    | Some rm ->
      List.iter (fun c -> Hashtbl.replace set c ())
        (Route_map.communities_matched rm)
  in
  Array.iter
    (fun (r : Device.router) ->
      List.iter
        (fun (_, (nb : Device.bgp_neighbor)) ->
          scan nb.import_rm;
          scan nb.export_rm)
        r.bgp_neighbors)
    net.routers;
  fun c -> Hashtbl.mem set c

let bgp_srp (net : Device.network) ~dest ~dest_prefix =
  Bgp.make ~tie_filter:(matched_comms net)
    ~policy:(bgp_policy net ~dest:dest_prefix) net.graph ~dest

(* Which protocols an origin node announces into: BGP if it speaks BGP,
   OSPF if it has OSPF interfaces; a node with neither still announces
   into BGP so the destination is not silently unreachable. Shared with
   the static flow analysis, which must seed its origins exactly like the
   simulator does. *)
let origin_protocols (net : Device.network) origin =
  let r = net.routers in
  let ps =
    (match r.(origin).Device.bgp_neighbors with
    | [] -> []
    | _ -> [ Multi.P_ebgp ])
    @ match r.(origin).Device.ospf_links with [] -> [] | _ -> [ Multi.P_ospf ]
  in
  match ps with [] -> [ Multi.P_ebgp ] | ps -> ps

let multi_srp (net : Device.network) ~dest ~dest_prefix =
  let r = net.routers in
  let ospf_enabled u v =
    Option.is_some (Device.ospf_link_config r.(u) v)
    && Option.is_some (Device.ospf_link_config r.(v) u)
  in
  let ospf_cost u v =
    match Device.ospf_link_config r.(u) v with
    | Some l -> l.Device.cost
    | None -> 1
  in
  let ospf_area v = r.(v).Device.ospf_area in
  let bgp_enabled u v =
    Option.is_some (Device.bgp_neighbor_config r.(u) v)
    && Option.is_some (Device.bgp_neighbor_config r.(v) u)
  in
  let ibgp u v =
    match Device.bgp_neighbor_config r.(u) v with
    | Some nb -> nb.Device.ibgp
    | None -> false
  in
  let statics =
    Array.to_list
      (Array.mapi
         (fun u ru ->
           Device.static_next_hops ru ~dest:dest_prefix
           |> List.map (fun nh -> (u, nh)))
         r)
    |> List.concat
  in
  let origin_protocols = origin_protocols net dest in
  Multi.make ~ospf_cost ~ospf_area ~ospf_enabled ~bgp_enabled ~ibgp
    ~bgp_policy:(bgp_policy net ~dest:dest_prefix)
    ~static_routes:statics
    ~redistribute:(fun v -> r.(v).Device.redistribute)
    ~bgp_tie_filter:(matched_comms net)
    ~origin_protocols net.graph ~dest

let prefs (net : Device.network) ~dest v =
  let lps =
    List.concat_map
      (fun (_, (nb : Device.bgp_neighbor)) ->
        match nb.import_rm with
        | None -> []
        | Some rm -> Route_map.local_prefs rm ~dest)
      net.routers.(v).Device.bgp_neighbors
  in
  List.sort_uniq Int.compare (Bgp.default_lp :: lps)

type edge_signature = {
  sig_import : int;
  sig_export : int;
  sig_ibgp : bool;
  sig_acl : bool;
  sig_ospf : (int * int * int) option;
  sig_static : bool;
}

(* Whether OSPF can carry [dest] at all: only via redistribution, or
   because an originator of [dest] injects it into OSPF (the
   [origin_protocols] rule of [multi_srp]). When neither holds, OSPF link
   state is inert for this class, and folding costs/areas into the
   signature would both over-refine the abstraction and defeat
   delta-driven reuse (lib/incr) on link-cost changes. Note this is a
   whole-network property: the incremental engine compares it across a
   delta before trusting signature locality. *)
let ospf_live (net : Device.network) ~dest =
  Array.exists (fun (r : Device.router) -> r.Device.redistribute <> [])
    net.routers
  || Array.exists
       (fun (r : Device.router) ->
         r.Device.ospf_links <> []
         && List.exists (fun p -> Prefix.equal p dest) r.Device.originated)
       net.routers

let signature_equal a b =
  a.sig_import = b.sig_import
  && a.sig_export = b.sig_export
  && Bool.equal a.sig_ibgp b.sig_ibgp
  && Bool.equal a.sig_acl b.sig_acl
  && (match (a.sig_ospf, b.sig_ospf) with
     | None, None -> true
     | Some (c, r, s), Some (c', r', s') -> c = c' && r = r' && s = s'
     | _ -> false)
  && Bool.equal a.sig_static b.sig_static

module Sig_tbl = Hashtbl.Make (struct
  type t = edge_signature

  let equal = signature_equal

  let hash s =
    let bit b k = if b then k else 0 in
    let ospf =
      match s.sig_ospf with
      | None -> 0
      | Some (c, r, a) -> 1 + (((c * 31) + r) * 31) + a
    in
    (((((s.sig_import * 31) + s.sig_export) * 31) + ospf) * 8)
    + bit s.sig_ibgp 4 + bit s.sig_acl 2 + bit s.sig_static 1
end)

(* Route-map BDD memo: physical identity first (the map value seen
   before), then structural equality for equal maps written out per
   neighbor, under a hash deep enough to tell multi-clause maps apart. *)
module Rm_memo = Hashtbl.Make (struct
  type t = Route_map.t

  let equal a b = a == b || a = b
  let hash = Hashtbl.hash_param 100 200
end)

let edge_signatures ?universe ?rm_bdd (net : Device.network) ~dest =
  let u =
    match universe with
    | Some u -> u
    | None -> Policy_bdd.universe_of_network net
  in
  (* Route-maps are shared across many interfaces; memoize their BDDs. A
     caller that keeps route-map BDDs alive across calls (the
     policy-signature cache of lib/incr) supplies its own [rm_bdd]
     instead — it must encode against [u]. *)
  let rm_bdd =
    match rm_bdd with
    | Some f -> f
    | None ->
      let identity = lazy (Policy_bdd.identity u) in
      let memo = Rm_memo.create 64 in
      (function
      | None -> Lazy.force identity
      | Some rm -> (
        match Rm_memo.find_opt memo rm with
        | Some b -> b
        | None ->
          let b = Policy_bdd.encode_route_map u rm ~dest in
          Rm_memo.replace memo rm b;
          b))
  in
  let ospf_live = ospf_live net ~dest in
  let routers = net.routers in
  let static_nh =
    Array.map (fun r -> lazy (Device.static_next_hops r ~dest)) routers
  in
  (* equal signatures are shared, so the per-edge memo holds few distinct
     records *)
  let shared = Sig_tbl.create 64 in
  let compute recv sender =
    let r = routers.(recv) and rs = routers.(sender) in
    let sig_acl = Acl.permits (Device.acl_for r sender) dest in
    let sig_ospf =
      if not ospf_live then None
      else
        match
          (Device.ospf_link_config r sender, Device.ospf_link_config rs recv)
        with
        | Some l, Some _ ->
          Some (l.Device.cost, r.Device.ospf_area, rs.Device.ospf_area)
        | _ -> None
    in
    let sig_static =
      List.exists (Int.equal sender) (Lazy.force static_nh.(recv))
    in
    let s =
      match
        (Device.bgp_neighbor_config r sender, Device.bgp_neighbor_config rs recv)
      with
      | Some nb, Some _ ->
        { sig_import = Bdd.hash (rm_bdd nb.Device.import_rm);
          sig_export = Bdd.hash (rm_bdd nb.Device.export_rm);
          sig_ibgp = nb.Device.ibgp; sig_acl; sig_ospf; sig_static }
      | _ ->
        { sig_import = -1; sig_export = -1; sig_ibgp = false; sig_acl;
          sig_ospf; sig_static }
    in
    match Sig_tbl.find_opt shared s with
    | Some s -> s
    | None ->
      Sig_tbl.add shared s s;
      s
  in
  (* memoized per directed edge, in an array indexed by edge id *)
  let g = net.graph in
  let unset =
    { sig_import = min_int; sig_export = min_int; sig_ibgp = false;
      sig_acl = false; sig_ospf = None; sig_static = false }
  in
  let memo = Array.make (Graph.n_edges g) unset in
  let signature recv sender =
    let e = Graph.edge_index g recv sender in
    if e < 0 then compute recv sender
    else begin
      if memo.(e) == unset then memo.(e) <- compute recv sender;
      memo.(e)
    end
  in
  (u, signature)
