(* The list-based [Delta.diff] and [Delta.apply] the library replaced:
   every router rebuilt as a name-keyed record, links as a sorted list of
   name pairs, one full pass per delta. Slow but plainly right, it is the
   oracle the linear implementation is checked against, delta for delta
   and error for error. *)

(* ------------------------------------------------------------------ *)
(* Normalized named form: routers keyed by name, neighbor references by
   name, every list canonically sorted — so semantic equality of two
   networks is structural equality of their named forms, independent of
   node numbering and list order. *)

type nrouter = {
  nbgp : (string * Device.bgp_neighbor) list;
  nospf : (string * Device.ospf_link) list;
  narea : int;
  nstatic : (Prefix.t * string) list;
  nacl : (string * Acl.t) list;
  norig : Prefix.t list;
  nredist : Multi.redistribution list;
}

type named = {
  mutable order : string list;  (* insertion order = node-id order *)
  mutable links : (string * string) list;  (* canonical pairs, sorted *)
  routers : (string, nrouter) Hashtbl.t;
}

let canon a b = if String.compare a b <= 0 then (a, b) else (b, a)
let sort_by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

let sort_static l =
  List.sort
    (fun (p1, n1) (p2, n2) ->
      let c = Prefix.compare p1 p2 in
      if c <> 0 then c else String.compare n1 n2)
    l

let sort_prefixes = List.sort Prefix.compare
let sort_redist l = List.sort_uniq compare l

let nrouter_of_router ~name (r : Device.router) =
  {
    nbgp = sort_by_name (List.map (fun (v, c) -> (name v, c)) r.Device.bgp_neighbors);
    nospf = sort_by_name (List.map (fun (v, l) -> (name v, l)) r.Device.ospf_links);
    narea = r.Device.ospf_area;
    nstatic =
      sort_static (List.map (fun (p, v) -> (p, name v)) r.Device.static_routes);
    nacl = sort_by_name (List.map (fun (v, a) -> (name v, a)) r.Device.acl_out);
    norig = sort_prefixes r.Device.originated;
    nredist = sort_redist r.Device.redistribute;
  }

let empty_nrouter name =
  let d = Device.default_router name in
  {
    nbgp = [];
    nospf = [];
    narea = d.Device.ospf_area;
    nstatic = [];
    nacl = [];
    norig = [];
    nredist = [];
  }

let to_named (net : Device.network) =
  let g = net.Device.graph in
  let n = Graph.n_nodes g in
  let name i = Graph.name g i in
  let links = ref [] in
  Graph.iter_edges g (fun u v -> links := canon (name u) (name v) :: !links);
  let routers = Hashtbl.create (max n 16) in
  Array.iteri
    (fun i r -> Hashtbl.replace routers (name i) (nrouter_of_router ~name r))
    net.Device.routers;
  { order = List.init n name; links = List.sort_uniq compare !links; routers }

let of_named nm =
  let b = Graph.Builder.create () in
  let ids = Hashtbl.create 16 in
  List.iter
    (fun name -> Hashtbl.replace ids name (Graph.Builder.add_node b name))
    nm.order;
  let id name =
    match Hashtbl.find_opt ids name with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Delta: unknown router %S" name)
  in
  List.iter (fun (x, y) -> Graph.Builder.add_link b (id x) (id y)) nm.links;
  let graph = Graph.Builder.build b in
  let by_id l = List.sort (fun (a, _) (b, _) -> Int.compare a b) l in
  (* Names resolve in the documented order, ACLs, static routes, OSPF
     interfaces, then BGP sessions, so the first unknown name is the one
     [Delta.apply] reports. *)
  let router_of name (nr : nrouter) =
    let acl_out = by_id (List.map (fun (v, a) -> (id v, a)) nr.nacl) in
    let static_routes = List.map (fun (p, v) -> (p, id v)) nr.nstatic in
    let ospf_links = by_id (List.map (fun (v, l) -> (id v, l)) nr.nospf) in
    let bgp_neighbors = by_id (List.map (fun (v, c) -> (id v, c)) nr.nbgp) in
    {
      Device.name;
      bgp_neighbors;
      ospf_links;
      ospf_area = nr.narea;
      static_routes;
      acl_out;
      originated = nr.norig;
      redistribute = nr.nredist;
    }
  in
  let routers =
    Array.of_list
      (List.map (fun name -> router_of name (Hashtbl.find nm.routers name))
         nm.order)
  in
  { Device.graph; routers }

(* ------------------------------------------------------------------ *)
(* apply *)

let get nm node =
  match Hashtbl.find_opt nm.routers node with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Delta: unknown router %S" node)

let set nm node r = Hashtbl.replace nm.routers node r
let assoc_del k l = List.filter (fun (k', _) -> k' <> k) l
let assoc_set k v l = sort_by_name ((k, v) :: assoc_del k l)

(* Drop everything [node] configures for neighbor [nbr]: the per-interface
   state that makes no sense once the link (or the neighbor) is gone. *)
let purge_neighbor nm node nbr =
  match Hashtbl.find_opt nm.routers node with
  | None -> ()
  | Some r ->
    set nm node
      {
        r with
        nbgp = assoc_del nbr r.nbgp;
        nospf = assoc_del nbr r.nospf;
        nacl = assoc_del nbr r.nacl;
        nstatic = List.filter (fun (_, v) -> v <> nbr) r.nstatic;
      }

let apply_delta nm = function
  | Delta.Link_up (a, b) ->
    ignore (get nm a);
    ignore (get nm b);
    if a = b then invalid_arg "Delta: self-link";
    if List.mem (canon a b) nm.links then
      invalid_arg (Printf.sprintf "Delta: link %s -- %s already exists" a b);
    nm.links <- List.sort compare (canon a b :: nm.links)
  | Delta.Link_down (a, b) ->
    if not (List.mem (canon a b) nm.links) then
      invalid_arg (Printf.sprintf "Delta: no link %s -- %s" a b);
    nm.links <- List.filter (fun l -> l <> canon a b) nm.links;
    purge_neighbor nm a b;
    purge_neighbor nm b a
  | Delta.Node_add name ->
    if Hashtbl.mem nm.routers name then
      invalid_arg (Printf.sprintf "Delta: router %S already exists" name);
    nm.order <- nm.order @ [ name ];
    Hashtbl.replace nm.routers name (empty_nrouter name)
  | Delta.Node_remove name ->
    ignore (get nm name);
    Hashtbl.remove nm.routers name;
    nm.order <- List.filter (fun x -> x <> name) nm.order;
    nm.links <- List.filter (fun (x, y) -> x <> name && y <> name) nm.links;
    List.iter (fun other -> purge_neighbor nm other name) nm.order
  | Delta.Ospf_cost { node; nbr; cost } -> (
    let r = get nm node in
    match List.assoc_opt nbr r.nospf with
    | None ->
      invalid_arg
        (Printf.sprintf "Delta: %s has no OSPF interface towards %s" node nbr)
    | Some l ->
      set nm node { r with nospf = assoc_set nbr { l with Device.cost } r.nospf })
  | Delta.Ospf_link_set { node; nbr; link } ->
    let r = get nm node in
    let nospf =
      match link with
      | None -> assoc_del nbr r.nospf
      | Some l -> assoc_set nbr l r.nospf
    in
    set nm node { r with nospf }
  | Delta.Ospf_area_set { node; area } -> set nm node { (get nm node) with narea = area }
  | Delta.Route_map_set { node; nbr; dir; rm } -> (
    let r = get nm node in
    match List.assoc_opt nbr r.nbgp with
    | None ->
      invalid_arg
        (Printf.sprintf "Delta: %s has no BGP session with %s" node nbr)
    | Some c ->
      let c =
        match dir with
        | Delta.Import -> { c with Device.import_rm = rm }
        | Delta.Export -> { c with Device.export_rm = rm }
      in
      set nm node { r with nbgp = assoc_set nbr c r.nbgp })
  | Delta.Bgp_neighbor_set { node; nbr; config } ->
    let r = get nm node in
    let nbgp =
      match config with
      | None -> assoc_del nbr r.nbgp
      | Some c -> assoc_set nbr c r.nbgp
    in
    set nm node { r with nbgp }
  | Delta.Acl_set { node; nbr; acl } ->
    let r = get nm node in
    let nacl =
      match acl with
      | None -> assoc_del nbr r.nacl
      | Some a -> assoc_set nbr a r.nacl
    in
    set nm node { r with nacl }
  | Delta.Static_set { node; routes } ->
    set nm node { (get nm node) with nstatic = sort_static routes }
  | Delta.Originate_set { node; prefixes } ->
    set nm node { (get nm node) with norig = sort_prefixes prefixes }
  | Delta.Redistribute_set { node; redistribute } ->
    set nm node { (get nm node) with nredist = sort_redist redistribute }

let apply net deltas =
  let nm = to_named net in
  List.iter (apply_delta nm) deltas;
  of_named nm

(* ------------------------------------------------------------------ *)
(* diff *)

let diff_router node (ra : nrouter) (rb : nrouter) =
  let union_keys la lb =
    List.sort_uniq String.compare (List.map fst la @ List.map fst lb)
  in
  let bgp =
    List.concat_map
      (fun nbr ->
        match (List.assoc_opt nbr ra.nbgp, List.assoc_opt nbr rb.nbgp) with
        | None, None -> []
        | None, Some c -> [ Delta.Bgp_neighbor_set { node; nbr; config = Some c } ]
        | Some _, None -> [ Delta.Bgp_neighbor_set { node; nbr; config = None } ]
        | Some ca, Some cb ->
          if ca = cb then []
          else if
            ca.Device.ibgp = cb.Device.ibgp
            && Device.relation_equal ca.Device.rel cb.Device.rel
          then
            (if ca.Device.import_rm <> cb.Device.import_rm then
               [ Delta.Route_map_set { node; nbr; dir = Delta.Import; rm = cb.Device.import_rm } ]
             else [])
            @
            if ca.Device.export_rm <> cb.Device.export_rm then
              [ Delta.Route_map_set { node; nbr; dir = Delta.Export; rm = cb.Device.export_rm } ]
            else []
          else [ Delta.Bgp_neighbor_set { node; nbr; config = Some cb } ])
      (union_keys ra.nbgp rb.nbgp)
  in
  let ospf =
    List.concat_map
      (fun nbr ->
        match (List.assoc_opt nbr ra.nospf, List.assoc_opt nbr rb.nospf) with
        | None, None -> []
        | None, Some l -> [ Delta.Ospf_link_set { node; nbr; link = Some l } ]
        | Some _, None -> [ Delta.Ospf_link_set { node; nbr; link = None } ]
        | Some la, Some lb ->
          if la = lb then []
          else if la.Device.area = lb.Device.area then
            [ Delta.Ospf_cost { node; nbr; cost = lb.Device.cost } ]
          else [ Delta.Ospf_link_set { node; nbr; link = Some lb } ])
      (union_keys ra.nospf rb.nospf)
  in
  let acl =
    List.concat_map
      (fun nbr ->
        let a = List.assoc_opt nbr ra.nacl
        and b = List.assoc_opt nbr rb.nacl in
        if a = b then [] else [ Delta.Acl_set { node; nbr; acl = b } ])
      (union_keys ra.nacl rb.nacl)
  in
  (if ra.narea <> rb.narea then [ Delta.Ospf_area_set { node; area = rb.narea } ]
   else [])
  @ bgp @ ospf @ acl
  @ (if ra.nstatic <> rb.nstatic then
       [ Delta.Static_set { node; routes = rb.nstatic } ]
     else [])
  @ (if ra.norig <> rb.norig then
       [ Delta.Originate_set { node; prefixes = rb.norig } ]
     else [])
  @
  if ra.nredist <> rb.nredist then
    [ Delta.Redistribute_set { node; redistribute = rb.nredist } ]
  else []

let diff a b =
  let na = to_named a and nb = to_named b in
  let in_a x = Hashtbl.mem na.routers x and in_b x = Hashtbl.mem nb.routers x in
  let removed = List.filter (fun x -> not (in_b x)) na.order in
  let added = List.filter (fun x -> not (in_a x)) nb.order in
  let surviving_links =
    List.filter (fun (x, y) -> in_b x && in_b y) na.links
  in
  let downs =
    List.filter (fun l -> not (List.mem l nb.links)) surviving_links
  in
  let ups = List.filter (fun l -> not (List.mem l na.links)) nb.links in
  let config =
    List.concat_map
      (fun node ->
        let ra =
          match Hashtbl.find_opt na.routers node with
          | Some r -> r
          | None -> empty_nrouter node
        in
        diff_router node ra (Hashtbl.find nb.routers node))
      nb.order
  in
  List.map (fun x -> Delta.Node_remove x) removed
  @ List.map (fun (x, y) -> Delta.Link_down (x, y)) downs
  @ List.map (fun x -> Delta.Node_add x) added
  @ List.map (fun (x, y) -> Delta.Link_up (x, y)) ups
  @ config

