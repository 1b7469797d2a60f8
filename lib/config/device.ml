type relation = Rel_unknown | Provider | Customer | Peer

let relation_equal a b =
  match (a, b) with
  | Rel_unknown, Rel_unknown | Provider, Provider | Customer, Customer
  | Peer, Peer ->
    true
  | (Rel_unknown | Provider | Customer | Peer), _ -> false

let relation_name = function
  | Rel_unknown -> "unknown"
  | Provider -> "provider"
  | Customer -> "customer"
  | Peer -> "peer"

type bgp_neighbor = {
  import_rm : Route_map.t option;
  export_rm : Route_map.t option;
  ibgp : bool;
  rel : relation;
}

let bgp_neighbor_equal a b =
  a == b
  || Bool.equal a.ibgp b.ibgp
     && relation_equal a.rel b.rel
     && Option.equal Route_map.equal a.import_rm b.import_rm
     && Option.equal Route_map.equal a.export_rm b.export_rm

type ospf_link = { cost : int; area : int }

let ospf_link_equal a b =
  a == b || (Int.equal a.cost b.cost && Int.equal a.area b.area)

type router = {
  name : string;
  bgp_neighbors : (int * bgp_neighbor) list;
  ospf_links : (int * ospf_link) list;
  ospf_area : int;
  static_routes : (Prefix.t * int) list;
  acl_out : (int * Acl.t) list;
  originated : Prefix.t list;
  redistribute : Multi.redistribution list;
}

type network = { graph : Graph.t; routers : router array }

let default_router name =
  {
    name;
    bgp_neighbors = [];
    ospf_links = [];
    ospf_area = 0;
    static_routes = [];
    acl_out = [];
    originated = [];
    redistribute = [];
  }

let ebgp_full ?import_rm ?export_rm graph v r =
  let nbrs = Graph.succ graph v in
  {
    r with
    bgp_neighbors =
      Array.to_list nbrs
      |> List.map (fun u ->
             (u, { import_rm; export_rm; ibgp = false; rel = Rel_unknown }));
  }

let validate net =
  let n = Graph.n_nodes net.graph in
  if Array.length net.routers <> n then
    Error
      (Printf.sprintf "router count %d does not match node count %d"
         (Array.length net.routers) n)
  else begin
    let err = ref None in
    Array.iteri
      (fun v r ->
        if !err = None then begin
          let check_nbr kind u =
            if !err = None && not (Graph.has_edge net.graph v u) then
              err :=
                Some
                  (Printf.sprintf "%s: %s neighbor %d is not adjacent" r.name
                     kind u)
          in
          List.iter (fun (u, _) -> check_nbr "bgp" u) r.bgp_neighbors;
          List.iter (fun (u, _) -> check_nbr "ospf" u) r.ospf_links;
          List.iter (fun (u, _) -> check_nbr "acl" u) r.acl_out;
          List.iter (fun (_, u) -> check_nbr "static" u) r.static_routes
        end)
      net.routers;
    match !err with None -> Ok () | Some e -> Error e
  end

let originations net =
  let acc = ref [] in
  Array.iteri
    (fun v r -> List.iter (fun p -> acc := (p, v) :: !acc) r.originated)
    net.routers;
  List.rev !acc

(* [List.assoc_opt] with int keys compared directly, not through the
   polymorphic compare: these lookups run once per edge per class. *)
let rec find_nbr u = function
  | [] -> None
  | (v, x) :: rest -> if Int.equal u v then Some x else find_nbr u rest

let bgp_neighbor_config r u = find_nbr u r.bgp_neighbors
let ospf_link_config r u = find_nbr u r.ospf_links
let acl_for r u = find_nbr u r.acl_out

(* Longest-prefix match among the static routes covering [dest]; routes
   of equal (maximal) length all contribute next hops (static ECMP). *)
let static_next_hops r ~dest =
  let matching =
    List.filter (fun (p, _) -> Prefix.subset dest p) r.static_routes
  in
  let best =
    List.fold_left (fun m (p, _) -> max m (Prefix.length p)) (-1) matching
  in
  List.filter_map
    (fun (p, nh) -> if Prefix.length p = best then Some nh else None)
    matching

let config_lines net =
  let rm_lines = function
    | None -> 0
    | Some rm ->
      List.fold_left
        (fun acc (cl : Route_map.clause) ->
          acc + 1 + List.length cl.conds + List.length cl.actions)
        0 rm
  in
  Array.fold_left
    (fun acc r ->
      acc + 3
      + List.fold_left
          (fun acc (_, nb) -> acc + 2 + rm_lines nb.import_rm + rm_lines nb.export_rm)
          0 r.bgp_neighbors
      + (2 * List.length r.ospf_links)
      + List.length r.static_routes
      + List.fold_left (fun acc (_, acl) -> acc + 1 + List.length acl) 0 r.acl_out
      + List.length r.originated
      + List.length r.redistribute)
    0 net.routers
