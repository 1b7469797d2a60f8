(* Reference transfer functions for the compiled ones, as a test oracle.
   They interpret the configuration on every call: each call re-finds the
   BGP session, the OSPF link and the ACL in the routers' association
   lists and walks the route maps clause by clause, and the static routes
   sit in a table keyed by edge. [Compile.bgp_srp] and
   [Compile.multi_srp] must agree with these on every directed edge and
   every attribute. *)

let eval_route_map (rm : Route_map.t) ~dest a =
  let cond_holds = function
    | Route_map.Match_community cs -> List.exists (fun c -> Bgp.has_comm c a) cs
    | Route_map.Match_prefix ps -> List.exists (fun p -> Prefix.subset dest p) ps
  in
  let apply_action a = function
    | Route_map.Set_local_pref lp -> { a with Bgp.lp }
    | Route_map.Add_community c -> Bgp.add_comm c a
    | Route_map.Delete_community c -> Bgp.del_comm c a
    | Route_map.Set_med med -> { a with Bgp.med }
  in
  let rec go = function
    | [] -> None
    | (cl : Route_map.clause) :: rest ->
      if List.for_all cond_holds cl.conds then
        match cl.verdict with
        | Route_map.Deny -> None
        | Route_map.Permit -> Some (List.fold_left apply_action a cl.actions)
      else go rest
  in
  go rm

let bgp_policy (net : Device.network) ~dest u v : Bgp.policy =
 fun a ->
  let ru = net.routers.(u) and rv = net.routers.(v) in
  match (Device.bgp_neighbor_config ru v, Device.bgp_neighbor_config rv u) with
  | Some imp, Some exp ->
    if not (Acl.permits (Device.acl_for ru v) dest) then None
    else
      let eval rm a =
        match rm with None -> Some a | Some rm -> eval_route_map rm ~dest a
      in
      (* LOCAL_PREF crosses iBGP sessions only *)
      let carry a =
        if imp.ibgp then a else { a with Bgp.lp = Bgp.default_lp }
      in
      Option.bind (eval exp.export_rm a) (fun a ->
          eval imp.import_rm (carry a))
  | _ -> None

let bgp_srp (net : Device.network) ~dest ~dest_prefix =
  Bgp.make ~tie_filter:(Compile.matched_comms net)
    ~policy:(bgp_policy net ~dest:dest_prefix) net.graph ~dest

let multi_make ~ospf_cost ~ospf_area ~ospf_enabled ~bgp_enabled ~ibgp
    ~bgp_policy ~static_routes ~redistribute ~bgp_tie_filter
    ~origin_protocols graph ~dest =
  let open Multi in
  let static_set = Hashtbl.create 16 in
  List.iter (fun (u, v) -> Hashtbl.replace static_set (u, v) ()) static_routes;
  let originates p = List.exists (proto_equal p) origin_protocols in
  let init =
    {
      static_ = originates P_static;
      ospf =
        (if originates P_ospf then Some { Ospf.cost = 0; inter_area = false }
         else None);
      bgp =
        (if originates P_ebgp then Some { battr = Bgp.init; via_ibgp = false }
         else None);
    }
  in
  let trans u v a =
    let static' = Hashtbl.mem static_set (u, v) in
    let ospf_raw = Option.bind a (fun x -> x.ospf) in
    let ospf_in =
      match ospf_raw with
      | Some o -> Some o
      | None ->
        if
          List.exists (redistribution_equal Bgp_into_ospf) (redistribute v)
          && Option.is_some (Option.bind a (fun x -> x.bgp))
        then Some { Ospf.cost = 0; inter_area = false }
        else None
    in
    let ospf' =
      match ospf_in with
      | Some o when ospf_enabled u v ->
        Some
          {
            Ospf.cost = o.Ospf.cost + ospf_cost u v;
            inter_area =
              o.Ospf.inter_area || not (Int.equal (ospf_area u) (ospf_area v));
          }
      | _ -> None
    in
    let bgp_at_v =
      match Option.bind a (fun x -> x.bgp) with
      | Some b -> Some b
      | None ->
        let rs = redistribute v in
        let have_ospf = Option.is_some ospf_raw in
        let have_static = match a with Some x -> x.static_ | None -> false in
        if
          (List.exists (redistribution_equal Ospf_into_bgp) rs && have_ospf)
          || List.exists (redistribution_equal Static_into_bgp) rs
             && have_static
        then Some { battr = Bgp.init; via_ibgp = false }
        else None
    in
    let bgp' =
      match bgp_at_v with
      | Some b when bgp_enabled u v ->
        if ibgp u v then
          if b.via_ibgp then None
          else
            Option.map
              (fun battr -> { battr; via_ibgp = true })
              (bgp_policy u v b.battr)
        else
          let path = v :: b.battr.Bgp.path in
          if List.exists (Int.equal u) path then None
          else
            Option.map
              (fun battr -> { battr; via_ibgp = false })
              (bgp_policy u v { b.battr with Bgp.path })
      | _ -> None
    in
    if static' || Option.is_some ospf' || Option.is_some bgp' then
      Some { static_ = static'; ospf = ospf'; bgp = bgp' }
    else None
  in
  {
    Srp.graph;
    dest;
    init;
    compare = compare_with ~tie_filter:bgp_tie_filter;
    trans;
    attr_equal = equal;
    pp_attr = pp;
  }

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
  let bgp_enabled u v =
    Option.is_some (Device.bgp_neighbor_config r.(u) v)
    && Option.is_some (Device.bgp_neighbor_config r.(v) u)
  in
  let ibgp u v =
    match Device.bgp_neighbor_config r.(u) v with
    | Some nb -> nb.Device.ibgp
    | None -> false
  in
  let static_routes =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun u ru ->
              List.map (fun nh -> (u, nh))
                (Device.static_next_hops ru ~dest:dest_prefix))
            r))
  in
  multi_make ~ospf_cost ~ospf_area:(fun v -> r.(v).Device.ospf_area)
    ~ospf_enabled ~bgp_enabled ~ibgp
    ~bgp_policy:(bgp_policy net ~dest:dest_prefix)
    ~static_routes
    ~redistribute:(fun v -> r.(v).Device.redistribute)
    ~bgp_tie_filter:(Compile.matched_comms net)
    ~origin_protocols:(Compile.origin_protocols net dest)
    net.graph ~dest
