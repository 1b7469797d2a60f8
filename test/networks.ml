(* Networks shared by the test suites. *)

(* [Synthesis.random_network] dressed with everything the compiled
   transfer resolves per edge: prefix-matching and community-rewriting
   route maps, one-sided and iBGP sessions, outbound ACLs, OSPF links with
   costs and areas, static routes (longest match and ECMP) and
   redistribution. A second class is originated so prefix conditions and
   ACL rules decide differently per class. *)
let decorated_network ~n ~seed =
  let base = Synthesis.random_network ~n ~seed in
  let g = base.Device.graph in
  let rng = Random.State.make [| seed; 0x7a11 |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let chance k = Random.State.int rng k = 0 in
  let p0 = Synthesis.prefix_of_index 0 and p1 = Synthesis.prefix_of_index 1 in
  let space = Prefix.of_string "10.0.0.0/8" in
  let open Route_map in
  let extra_maps : Route_map.t option array =
    [|
      Some
        [
          { verdict = Deny; conds = [ Match_prefix [ p1 ] ]; actions = [] };
          { verdict = Permit; conds = []; actions = [ Set_med 3 ] };
        ];
      Some
        [
          {
            verdict = Permit;
            conds = [ Match_prefix [ space ]; Match_community [ 1; 3 ] ];
            actions = [ Set_local_pref 150; Add_community 3 ];
          };
          { verdict = Permit; conds = []; actions = [] };
        ];
      Some [ { verdict = Permit; conds = []; actions = [] } ];
      Some [];
      Some
        [
          { verdict = Permit; conds = [ Match_prefix [ p0 ] ]; actions = [] };
          { verdict = Deny; conds = []; actions = [] };
        ];
    |]
  in
  let acls : Acl.t array =
    [|
      [ { Acl.permit = false; prefix = p1 }; { Acl.permit = true; prefix = space } ];
      [ { Acl.permit = true; prefix = p0 } ];
      [ { Acl.permit = false; prefix = space } ];
    |]
  in
  let origin1 = 1 + Random.State.int rng (n - 1) in
  let routers =
    Array.mapi
      (fun v (r : Device.router) ->
        let nbrs = Array.to_list (Graph.succ g v) in
        let bgp_neighbors =
          List.filter_map
            (fun (u, (nb : Device.bgp_neighbor)) ->
              if chance 8 then None
              else
                let nb =
                  if chance 3 then
                    { nb with Device.import_rm = pick extra_maps }
                  else nb
                in
                let nb =
                  if chance 4 then
                    { nb with Device.export_rm = pick extra_maps }
                  else nb
                in
                Some (u, { nb with Device.ibgp = chance 5 }))
            r.Device.bgp_neighbors
        in
        let ospf_links =
          List.filter_map
            (fun u ->
              if chance 3 then None
              else Some (u, { Device.cost = 1 + Random.State.int rng 4; area = 0 }))
            nbrs
        in
        let acl_out =
          List.filter_map
            (fun u -> if chance 4 then Some (u, pick acls) else None)
            nbrs
        in
        let static_routes =
          List.concat_map
            (fun u ->
              if chance 5 then [ (pick [| p0; p1; space |], u) ] else [])
            nbrs
        in
        let redistribute =
          List.filter
            (fun _ -> chance 4)
            [ Multi.Ospf_into_bgp; Multi.Static_into_bgp; Multi.Bgp_into_ospf ]
        in
        {
          r with
          Device.bgp_neighbors;
          ospf_links;
          ospf_area = Random.State.int rng 2;
          acl_out;
          static_routes;
          redistribute;
          originated =
            (if v = origin1 then p1 :: r.Device.originated
             else r.Device.originated);
        })
      base.Device.routers
  in
  { base with Device.routers }

(* [decorated_network] where the origin of [p1] also announces [p2] and
   [p3], and one router may single one of them out: a static route or an
   outbound ACL for [p3], or an import map whose prefix list names [p2]
   (one such map only shadows a local preference, which [Compile.prefs]
   still reads). So some classes of one origin share a key and some do
   not. *)
let shared_origin_network ~n ~seed =
  let net = decorated_network ~n ~seed in
  let rng = Random.State.make [| seed; 0x5a4e |] in
  let p1 = Synthesis.prefix_of_index 1 in
  let p2 = Synthesis.prefix_of_index 2 and p3 = Synthesis.prefix_of_index 3 in
  let space = Prefix.of_string "10.0.0.0/8" in
  let w = Random.State.int rng n in
  let succ = Graph.succ net.Device.graph w in
  let nb = succ.(Random.State.int rng (Array.length succ)) in
  let open Route_map in
  let import rm (r : Device.router) =
    {
      r with
      Device.bgp_neighbors =
        List.map
          (fun (u, (c : Device.bgp_neighbor)) ->
            if u = nb then (u, { c with Device.import_rm = Some rm }) else (u, c))
          r.Device.bgp_neighbors;
    }
  in
  let single_out =
    match Random.State.int rng 6 with
    | 0 -> fun r -> { r with Device.static_routes = (p3, nb) :: r.Device.static_routes }
    | 1 ->
      let acl =
        [ { Acl.permit = false; prefix = p3 }; { Acl.permit = true; prefix = space } ]
      in
      fun r -> { r with Device.acl_out = (nb, acl) :: r.Device.acl_out }
    | 2 ->
      import
        [
          { verdict = Deny; conds = [ Match_prefix [ p2 ] ]; actions = [] };
          { verdict = Permit; conds = []; actions = [] };
        ]
    | 3 ->
      import
        [
          { verdict = Permit; conds = [ Match_prefix [ space ] ]; actions = [] };
          { verdict = Permit; conds = [ Match_prefix [ p2 ] ];
            actions = [ Set_local_pref 120 ] };
        ]
    | _ -> Fun.id
  in
  let routers =
    Array.mapi
      (fun v (r : Device.router) ->
        let r = if v = w then single_out r else r in
        if List.exists (Prefix.equal p1) r.Device.originated then
          { r with Device.originated = r.Device.originated @ [ p2; p3 ] }
        else r)
      net.Device.routers
  in
  { net with Device.routers }

(* ring:6 where router 0 also announces the prefixes of routers 1 and
   2: the first three classes share one key, the last three have one
   each. *)
let ring6_shared () =
  let net = Synthesis.ring_bgp ~n:6 in
  let moved = [ Synthesis.prefix_of_index 1; Synthesis.prefix_of_index 2 ] in
  {
    net with
    Device.routers =
      Array.mapi
        (fun v (r : Device.router) ->
          if v = 0 then { r with Device.originated = r.Device.originated @ moved }
          else if v <= 2 then { r with Device.originated = [] }
          else r)
        net.Device.routers;
  }
