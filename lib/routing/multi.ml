type proto = P_static | P_ospf | P_ebgp | P_ibgp

let proto_equal a b =
  match (a, b) with
  | P_static, P_static | P_ospf, P_ospf | P_ebgp, P_ebgp | P_ibgp, P_ibgp ->
    true
  | (P_static | P_ospf | P_ebgp | P_ibgp), _ -> false

let proto_name = function
  | P_static -> "static"
  | P_ospf -> "ospf"
  | P_ebgp -> "ebgp"
  | P_ibgp -> "ibgp"

let admin_distance = function
  | P_static -> 1
  | P_ebgp -> 20
  | P_ospf -> 110
  | P_ibgp -> 200

type bgp_route = { battr : Bgp.attr; via_ibgp : bool }

type attr = {
  static_ : bool;
  ospf : Ospf.attr option;
  bgp : bgp_route option;
}

let bgp_proto b = if b.via_ibgp then P_ibgp else P_ebgp

let selected a =
  let candidates =
    (if a.static_ then [ P_static ] else [])
    @ (match a.ospf with Some _ -> [ P_ospf ] | None -> [])
    @ (match a.bgp with Some b -> [ bgp_proto b ] | None -> [])
  in
  match candidates with
  | [] -> invalid_arg "Multi.selected: empty attribute"
  | p :: rest ->
    List.fold_left
      (fun best q -> if admin_distance q < admin_distance best then q else best)
      p rest

let compare_with ~tie_filter a b =
  let pa = selected a and pb = selected b in
  match Int.compare (admin_distance pa) (admin_distance pb) with
  | 0 -> (
    match pa with
    | P_static -> 0
    | P_ospf -> (
      match (a.ospf, b.ospf) with
      | Some x, Some y -> Ospf.compare x y
      | _ -> assert false)
    | P_ebgp | P_ibgp -> (
      match (a.bgp, b.bgp) with
      | Some x, Some y -> Bgp.compare_with ~tie_filter x.battr y.battr
      | _ -> assert false))
  | c -> c

let compare a b = compare_with ~tie_filter:(fun _ -> true) a b

let bgp_route_equal a b =
  Bgp.equal a.battr b.battr && Bool.equal a.via_ibgp b.via_ibgp

let equal a b =
  Bool.equal a.static_ b.static_
  && Option.equal Ospf.equal a.ospf b.ospf
  && Option.equal bgp_route_equal a.bgp b.bgp

type redistribution = Ospf_into_bgp | Static_into_bgp | Bgp_into_ospf

let redistribution_equal a b =
  match (a, b) with
  | Ospf_into_bgp, Ospf_into_bgp
  | Static_into_bgp, Static_into_bgp
  | Bgp_into_ospf, Bgp_into_ospf ->
    true
  | (Ospf_into_bgp | Static_into_bgp | Bgp_into_ospf), _ -> false

let redistribution_rank = function
  | Ospf_into_bgp -> 0
  | Static_into_bgp -> 1
  | Bgp_into_ospf -> 2

let redistribution_compare a b =
  Int.compare (redistribution_rank a) (redistribution_rank b)

let pp ppf a =
  let parts = ref [] in
  (match a.bgp with
  | Some b ->
    parts :=
      Format.asprintf "%s:%a" (if b.via_ibgp then "ibgp" else "ebgp") Bgp.pp b.battr
      :: !parts
  | None -> ());
  (match a.ospf with
  | Some o -> parts := Format.asprintf "ospf:%a" Ospf.pp o :: !parts
  | None -> ());
  if a.static_ then parts := "static" :: !parts;
  Format.fprintf ppf "{%s | sel=%s}"
    (String.concat "; " !parts)
    (proto_name (selected a))

type edges = {
  graph : Graph.t;
  ospf_on : bool array;
  ospf_cost : int array;
  bgp_on : bool array;
  ibgp : bool array;
  static_on : bool array;
  bgp_policy : int -> Bgp.attr -> Bgp.attr option;
  area : int array;
  bgp_into_ospf : bool array;
  ospf_into_bgp : bool array;
  static_into_bgp : bool array;
}

let no_ospf = { Ospf.cost = 0; inter_area = false }
let fresh_bgp = { battr = Bgp.init; via_ibgp = false }

(* The transfer kernel: one edge-index search, then array reads by edge
   id and node; a pair that is not an edge of [t.graph] carries nothing. *)
let transfer t u v a =
  let e = Graph.edge_index t.graph u v in
  if e < 0 then None
  else
    let static' = t.static_on.(e) in
    let ospf_raw, bgp_raw, have_static =
      match a with
      | None -> (None, None, false)
      | Some x -> (x.ospf, x.bgp, x.static_)
    in
    (* Redistribution into OSPF at the advertising node [v]: if [v] holds
       a BGP route but no OSPF route, it may originate one. *)
    let ospf' =
      if not t.ospf_on.(e) then None
      else
        let ospf_in =
          match ospf_raw with
          | Some _ -> ospf_raw
          | None ->
            if t.bgp_into_ospf.(v) && Option.is_some bgp_raw then Some no_ospf
            else None
        in
        match ospf_in with
        | None -> None
        | Some o ->
          Some
            {
              Ospf.cost = o.Ospf.cost + t.ospf_cost.(e);
              inter_area =
                o.Ospf.inter_area || not (Int.equal t.area.(u) t.area.(v));
            }
    in
    (* Redistribution happens at the advertising node [v]: if [v] has no
       BGP route but holds a redistributable one, it originates a fresh
       BGP announcement. *)
    let bgp' =
      if not t.bgp_on.(e) then None
      else
        let bgp_at_v =
          match bgp_raw with
          | Some _ -> bgp_raw
          | None ->
            if
              (t.ospf_into_bgp.(v) && Option.is_some ospf_raw)
              || (t.static_into_bgp.(v) && have_static)
            then Some fresh_bgp
            else None
        in
        match bgp_at_v with
        | None -> None
        | Some b ->
          if t.ibgp.(e) then
            if b.via_ibgp then None (* no re-advertisement over iBGP *)
            else
              match t.bgp_policy e b.battr with
              | None -> None
              | Some battr -> Some { battr; via_ibgp = true }
          else
            let path = v :: b.battr.Bgp.path in
            if List.exists (Int.equal u) path then None
            else
              match t.bgp_policy e { b.battr with Bgp.path } with
              | None -> None
              | Some battr -> Some { battr; via_ibgp = false }
    in
    if static' || Option.is_some ospf' || Option.is_some bgp' then
      Some { static_ = static'; ospf = ospf'; bgp = bgp' }
    else None

let of_edges ?(bgp_tie_filter = fun _ -> true)
    ?(origin_protocols = [ P_ospf; P_ebgp ]) t ~dest =
  let originates p = List.exists (proto_equal p) origin_protocols in
  let init =
    {
      static_ = originates P_static;
      ospf = (if originates P_ospf then Some no_ospf else None);
      bgp = (if originates P_ebgp then Some fresh_bgp else None);
    }
  in
  {
    Srp.graph = t.graph;
    dest;
    init;
    compare = compare_with ~tie_filter:bgp_tie_filter;
    trans = transfer t;
    attr_equal = equal;
    pp_attr = pp;
  }

let make ?(ospf_cost = fun _ _ -> 1) ?(ospf_area = fun _ -> 0)
    ?(ospf_enabled = fun _ _ -> true) ?(bgp_enabled = fun _ _ -> true)
    ?(ibgp = fun _ _ -> false) ?(bgp_policy = fun _ _ a -> Some a)
    ?(static_routes = []) ?(redistribute = fun _ -> [])
    ?bgp_tie_filter ?origin_protocols graph ~dest =
  let n = Graph.n_nodes graph and m = Graph.n_edges graph in
  let ospf_on = Array.make m false and ospf_cost' = Array.make m 0 in
  let bgp_on = Array.make m false and ibgp' = Array.make m false in
  let policies = Array.make m (fun _ -> None) in
  (* each closure is evaluated once per edge, where the transfer would
     consult it *)
  Graph.iter_edges graph (fun u v ->
      let e = Graph.edge_index graph u v in
      if ospf_enabled u v then begin
        ospf_on.(e) <- true;
        ospf_cost'.(e) <- ospf_cost u v
      end;
      if bgp_enabled u v then begin
        bgp_on.(e) <- true;
        ibgp'.(e) <- ibgp u v;
        policies.(e) <- bgp_policy u v
      end);
  let static_on = Array.make m false in
  List.iter
    (fun (u, v) ->
      let e = Graph.edge_index graph u v in
      if e < 0 then invalid_arg "Multi.make: static route along a missing edge";
      static_on.(e) <- true)
    static_routes;
  let redistributes r = Array.init n (fun v -> List.exists (redistribution_equal r) (redistribute v)) in
  of_edges ?bgp_tie_filter ?origin_protocols
    {
      graph;
      ospf_on;
      ospf_cost = ospf_cost';
      bgp_on;
      ibgp = ibgp';
      static_on;
      bgp_policy = (fun e a -> policies.(e) a);
      area = Array.init n ospf_area;
      bgp_into_ospf = redistributes Bgp_into_ospf;
      ospf_into_bgp = redistributes Ospf_into_bgp;
      static_into_bgp = redistributes Static_into_bgp;
    }
    ~dest
