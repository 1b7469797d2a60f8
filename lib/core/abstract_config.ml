let emit (t : Abstraction.t) =
  let net = t.Abstraction.net in
  let routers = net.Device.routers in
  let ag = t.Abstraction.abs_graph in
  let n_abs = Abstraction.n_abstract t in
  let abs_routers =
    Array.init n_abs (fun a ->
        let r = routers.(Abstraction.repr_of_abs t a) in
        let nbrs = Array.to_list (Graph.succ ag a) in
        (* Each abstract session copies the representative concrete
           session's configuration for that neighbor group. *)
        let bgp_neighbors =
          List.filter_map
            (fun b ->
              match Abstraction.repr_edge t a b with
              | u, v -> (
                match Device.bgp_neighbor_config routers.(u) v with
                | Some nb -> Some (b, nb)
                | None -> None)
              | exception Not_found -> None)
            nbrs
        in
        let ospf_links =
          List.filter_map
            (fun b ->
              match Abstraction.repr_edge t a b with
              | u, v -> (
                match
                  ( Device.ospf_link_config routers.(u) v,
                    Device.ospf_link_config routers.(v) u )
                with
                | Some l, Some _ -> Some (b, l)
                | _ -> None)
              | exception Not_found -> None)
            nbrs
        in
        let acl_out =
          List.filter_map
            (fun b ->
              match Abstraction.repr_edge t a b with
              | u, v ->
                Option.map (fun acl -> (b, acl)) (Device.acl_for routers.(u) v)
              | exception Not_found -> None)
            nbrs
        in
        (* Static routes survive when their next hop has an image among
           the abstract neighbors carrying the same interface. *)
        let static_routes =
          List.filter_map
            (fun (p, nh) ->
              let target = Abstraction.f t nh in
              if Graph.has_edge ag a target then Some (p, target) else None)
            r.Device.static_routes
        in
        {
          Device.name = Graph.name ag a;
          bgp_neighbors;
          ospf_links;
          ospf_area = r.Device.ospf_area;
          static_routes;
          acl_out;
          originated =
            (if a = t.Abstraction.abs_dest then [ t.Abstraction.dest_prefix ]
             else []);
          redistribute = r.Device.redistribute;
        })
  in
  { Device.graph = ag; routers = abs_routers }

let config_reduction t =
  (Device.config_lines t.Abstraction.net, Device.config_lines (emit t))
