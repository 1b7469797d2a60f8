let prefix_of_index i =
  if i < 0 || i >= 256 * 256 then invalid_arg "Synthesis.prefix_of_index";
  Prefix.make (Ipv4.of_octets 10 (i / 256) (i mod 256) 0) 24

let space = Prefix.make (Ipv4.of_octets 10 0 0 0) 8

(* The destination-based prefix filter the synthetic networks attach to
   every import: permit routes for the experiment's address space only. *)
let space_filter : Route_map.t =
  [ { verdict = Permit; conds = [ Match_prefix [ space ] ]; actions = [] } ]

let ebgp_shortest_path ?originators (graph : Graph.t) : Device.network =
  let n = Graph.n_nodes graph in
  let originators =
    match originators with Some l -> l | None -> List.init n Fun.id
  in
  let origin_rank = Hashtbl.create n in
  List.iteri (fun i v -> Hashtbl.replace origin_rank v i) originators;
  let routers =
    Array.init n (fun v ->
        let r = Device.default_router (Graph.name graph v) in
        let r =
          {
            r with
            Device.bgp_neighbors =
              Array.to_list (Graph.succ graph v)
              |> List.map (fun u ->
                     ( u,
                       {
                         Device.import_rm = Some space_filter;
                         export_rm = None;
                         ibgp = false;
                         rel = Device.Rel_unknown;
                       } ));
          }
        in
        match Hashtbl.find_opt origin_rank v with
        | Some i -> { r with Device.originated = [ prefix_of_index i ] }
        | None -> r)
  in
  { Device.graph; routers }

let fattree_shortest_path (ft : Generators.fattree) =
  ebgp_shortest_path ~originators:(Array.to_list ft.ft_edge) ft.ft_graph

let fattree_prefer_bottom (ft : Generators.fattree) =
  let net = fattree_shortest_path ft in
  let is_edge = Array.make (Graph.n_nodes ft.ft_graph) false in
  Array.iter (fun v -> is_edge.(v) <- true) ft.ft_edge;
  let is_agg = Array.make (Graph.n_nodes ft.ft_graph) false in
  Array.iter (fun v -> is_agg.(v) <- true) ft.ft_agg;
  let routers =
    Array.mapi
      (fun v (r : Device.router) ->
        if not is_agg.(v) then r
        else
          {
            r with
            Device.bgp_neighbors =
              List.map
                (fun (u, (nb : Device.bgp_neighbor)) ->
                  if is_edge.(u) then
                    ( u,
                      {
                        nb with
                        Device.import_rm =
                          Some
                            [
                              {
                                Route_map.verdict = Permit;
                                conds = [ Match_prefix [ space ] ];
                                actions = [ Set_local_pref 200 ];
                              };
                            ];
                      } )
                  else (u, nb))
                r.Device.bgp_neighbors;
          })
      net.routers
  in
  { net with routers }

let ring_bgp ~n = ebgp_shortest_path (Generators.ring ~n)
let mesh_bgp ~n = ebgp_shortest_path (Generators.full_mesh ~n)

type real_network = { net : Device.network; description : string }

(* ------------------------------------------------------------------ *)
(* Datacenter: 8 clusters x (16 leaves + 8 spines) + 5 cores = 197.    *)
(* ------------------------------------------------------------------ *)

let dc_static_variants = 24
let dc_unique_comm_leaves = 86

(* Heterogeneous cluster sizes (total 128 leaves): real clusters differ in
   size, which is what keeps the compressed network at a few dozen nodes
   rather than a handful. *)
let dc_leaf_counts = [ 20; 18; 17; 16; 16; 15; 14; 12 ]

let datacenter () =
  let dc =
    Generators.datacenter ~leaf_counts:dc_leaf_counts ~clusters:8 ~leaves:16
      ~spines:8 ~cores:5 ()
  in
  let g = dc.dc_graph in
  let leaf_rank = Hashtbl.create 128 in
  Array.iteri (fun i v -> Hashtbl.replace leaf_rank v i) dc.dc_leaves;
  let spine_set = Hashtbl.create 64 in
  Array.iter (fun v -> Hashtbl.replace spine_set v ()) dc.dc_spines;
  (* Service prefixes reached through per-leaf static routes; originated by
     the core layer so they form destination ECs. *)
  let service_prefix k = Prefix.make (Ipv4.of_octets 10 100 k 0) 24 in
  let leaf_acl : Acl.t = [ { permit = true; prefix = space } ] in
  (* Spines prefer routes learned from the leaf tier (the Figure 11
     "middle tier prefers bottom" policy). The extra preference level is
     what forces the forall-forall treatment of the spine tier, so the
     compressed network keeps per-cluster structure as the paper's
     operational datacenter does. *)
  let spine_from_leaf : Route_map.t =
    [
      {
        verdict = Permit;
        conds = [ Match_prefix [ space ] ];
        actions = [ Set_local_pref 150 ];
      };
    ]
  in
  let leaf_set = Hashtbl.create 128 in
  Array.iter (fun v -> Hashtbl.replace leaf_set v ()) dc.dc_leaves;
  let core_set = Hashtbl.create 8 in
  Array.iter (fun v -> Hashtbl.replace core_set v ()) dc.dc_cores;
  let routers =
    Array.init (Graph.n_nodes g) (fun v ->
        let r = Device.default_router (Graph.name g v) in
        match Hashtbl.find_opt leaf_rank v with
        | Some li ->
          (* Leaves: eBGP to spines with the space filter; 10 originated
             prefixes; a static-route variant; some leaves tag exports with
             a community nobody ever matches. *)
          let export_rm =
            if li < dc_unique_comm_leaves then
              Some
                [
                  {
                    Route_map.verdict = Permit;
                    conds = [];
                    actions = [ Add_community (1000 + li) ];
                  };
                ]
            else None
          in
          let nbrs =
            Array.to_list (Graph.succ g v)
            |> List.map (fun u ->
                   ( u,
                     {
                       Device.import_rm = Some space_filter;
                       export_rm;
                       ibgp = false;
                       rel = Device.Rel_unknown;
                     } ))
          in
          let first_spine =
            Array.to_list (Graph.succ g v)
            |> List.find (fun u -> Hashtbl.mem spine_set u)
          in
          {
            r with
            Device.bgp_neighbors = nbrs;
            originated = List.init 10 (fun k -> prefix_of_index ((li * 10) + k));
            static_routes =
              [ (service_prefix (li mod dc_static_variants), first_spine) ];
            acl_out =
              Array.to_list (Graph.succ g v) |> List.map (fun u -> (u, leaf_acl));
          }
        | None ->
          (* Spines: space filter towards cores, prefer-leaf-tier towards
             leaves. Cores: plain eBGP plus a uniform outbound ACL. *)
          let r =
            if Hashtbl.mem core_set v then
              let r = Device.ebgp_full ~import_rm:space_filter g v r in
              {
                r with
                Device.acl_out =
                  Array.to_list (Graph.succ g v)
                  |> List.map (fun u -> (u, leaf_acl));
              }
            else
              {
                r with
                Device.bgp_neighbors =
                  Array.to_list (Graph.succ g v)
                  |> List.map (fun u ->
                         let import_rm =
                           if Hashtbl.mem leaf_set u then spine_from_leaf
                           else space_filter
                         in
                         ( u,
                           {
                             Device.import_rm = Some import_rm;
                             export_rm = None;
                             ibgp = false;
                             rel = Device.Rel_unknown;
                           } ));
              }
          in
          let core_rank =
            let rec go i =
              if i >= Array.length dc.dc_cores then None
              else if dc.dc_cores.(i) = v then Some i
              else go (i + 1)
            in
            go 0
          in
          match core_rank with
          | Some ci ->
            (* Each core originates a share of the service prefixes. *)
            {
              r with
              Device.originated =
                List.init dc_static_variants Fun.id
                |> List.filter (fun k -> k mod Array.length dc.dc_cores = ci)
                |> List.map service_prefix;
            }
          | None -> r)
  in
  {
    net = { Device.graph = g; routers };
    description =
      "synthetic stand-in for the paper's 197-router datacenter \
       (8 Clos clusters + core, eBGP + static routes, ACLs, communities)";
  }

(* ------------------------------------------------------------------ *)
(* WAN: 62 backbone + 31 PoPs x 33 routers + 1 NOC = 1086.             *)
(* ------------------------------------------------------------------ *)

let wan_pops = 31
let wan_pop_size = 33
let wan_static_variants = 13

let wan () =
  let w = Generators.wan ~extra:1 ~pops:wan_pops ~pop_size:wan_pop_size ~seed:7 () in
  let g = w.wan_graph in
  let n = Graph.n_nodes g in
  let backbone_set = Hashtbl.create 64 in
  Array.iteri (fun i v -> Hashtbl.replace backbone_set v i) w.wan_backbone;
  let pop_rank = Hashtbl.create 1024 in
  Array.iteri (fun i v -> Hashtbl.replace pop_rank v i) w.wan_pop_routers;
  let aggs_per_pop = max 1 (wan_pop_size / 8) in
  let service_prefix s = Prefix.make (Ipv4.of_octets 10 250 s 0) 24 in
  let backbone_export p : Route_map.t =
    [
      {
        verdict = Deny;
        conds =
          [
            Match_prefix
              [ Prefix.make (Ipv4.of_octets 10 (200 + (p mod 21)) 0 0) 16 ];
          ];
        actions = [];
      };
      { verdict = Permit; conds = []; actions = [] };
    ]
  in
  (* Each PoP owns 10.<pop>.0.0/16; its access routers originate /24s
     inside it. Aggregation routers never accept their own PoP's prefixes
     back from the backbone: without this (realistic) filter, routes
     redistributed from a PoP's OSPF into BGP reflect off the backbone and
     BGP loop prevention makes symmetric aggregation routers diverge. *)
  let pop_prefix p = Prefix.make (Ipv4.of_octets 10 p 0 0) 16 in
  let access_prefix p i = Prefix.make (Ipv4.of_octets 10 p i 0) 24 in
  let agg_import c : Route_map.t =
    [
      { verdict = Deny; conds = [ Match_prefix [ pop_prefix c ] ]; actions = [] };
      {
        verdict = Deny;
        conds =
          [
            Match_prefix
              [ Prefix.make (Ipv4.of_octets 10 (150 + (c mod 15)) 0 0) 16 ];
          ];
        actions = [];
      };
      { verdict = Permit; conds = [ Match_prefix [ space ] ]; actions = [] };
    ]
  in
  let routers =
    Array.init n (fun v ->
        let r = Device.default_router (Graph.name g v) in
        match Hashtbl.find_opt backbone_set v with
        | Some bi ->
          (* Backbone: eBGP to backbone neighbors and PoP aggregates, iBGP
             to the pair partner. *)
          let pair = if bi mod 2 = 0 then bi + 1 else bi - 1 in
          let pair_node =
            if pair < Array.length w.wan_backbone then
              Some w.wan_backbone.(pair)
            else None
          in
          let pop_class = bi / 2 in
          let nbrs =
            Array.to_list (Graph.succ g v)
            |> List.map (fun u ->
                   let ibgp = pair_node = Some u in
                   ( u,
                     {
                       Device.import_rm = Some space_filter;
                       export_rm = Some (backbone_export pop_class);
                       ibgp;
                       rel = Device.Rel_unknown;
                     } ))
          in
          { r with Device.bgp_neighbors = nbrs }
        | None -> (
          match Hashtbl.find_opt pop_rank v with
          | None ->
            (* the NOC router: eBGP to the backbone; originates the
               statically-routed service prefixes *)
            let r =
              Device.ebgp_full ~import_rm:space_filter g v r
            in
            {
              r with
              Device.originated =
                List.init wan_static_variants service_prefix;
            }
          | Some pi ->
            let pop = pi / wan_pop_size and idx = pi mod wan_pop_size in
            if idx < aggs_per_pop then
              (* Aggregation router: eBGP to the backbone, OSPF towards the
                 access tier, redistribution both ways. *)
              let nbrs = Array.to_list (Graph.succ g v) in
              let bgp_neighbors =
                List.filter (fun u -> Hashtbl.mem backbone_set u) nbrs
                |> List.map (fun u ->
                       ( u,
                         {
                           Device.import_rm = Some (agg_import pop);
                           export_rm = None;
                           ibgp = false;
                           rel = Device.Rel_unknown;
                         } ))
              in
              let ospf_links =
                List.filter (fun u -> not (Hashtbl.mem backbone_set u)) nbrs
                |> List.map (fun u -> (u, { Device.cost = 1; area = pop + 1 }))
              in
              {
                r with
                Device.bgp_neighbors;
                ospf_links;
                ospf_area = pop + 1;
                redistribute = [ Multi.Ospf_into_bgp; Multi.Bgp_into_ospf ];
              }
            else
              (* Access router: OSPF only; originates a /24; a static-route
                 variant towards a service prefix; OSPF cost and ACL
                 variants. The variant index [h] is unique per access
                 router, so the (cost, static, ACL) combinations realize
                 their full product and the role population is rich (the
                 paper's WAN has 137 roles from neighbor-specific filters
                 and ACLs). *)
              let h = (pop * (wan_pop_size - aggs_per_pop)) + idx in
              let cost = 1 + (h mod 3) in
              let ospf_links =
                Array.to_list (Graph.succ g v)
                |> List.map (fun u -> (u, { Device.cost = cost; area = pop + 1 }))
              in
              let first_agg =
                Array.to_list (Graph.succ g v)
                |> List.find_opt (fun u ->
                       match Hashtbl.find_opt pop_rank u with
                       | Some pj -> pj mod wan_pop_size < aggs_per_pop
                       | None -> false)
              in
              let static_routes =
                match first_agg with
                | Some agg when h / 3 mod 2 = 0 ->
                  [ (service_prefix (h / 6 mod wan_static_variants), agg) ]
                | _ -> []
              in
              let acl_out =
                if h / 78 mod 2 = 0 then
                  Array.to_list (Graph.succ g v)
                  |> List.map (fun u ->
                         (u, [ { Acl.permit = true; prefix = space } ]))
                else []
              in
              {
                r with
                Device.ospf_links;
                ospf_area = pop + 1;
                originated = [ access_prefix pop idx ];
                static_routes;
                acl_out;
              }))
  in
  {
    net = { Device.graph = g; routers };
    description =
      "synthetic stand-in for the paper's 1086-device WAN \
       (backbone eBGP/iBGP, OSPF PoPs with redistribution, static routes)";
  }

(* ------------------------------------------------------------------ *)
(* Random configured networks for property-based testing.              *)
(* ------------------------------------------------------------------ *)

let random_network ~n ~seed =
  let g = Generators.random_connected ~n ~extra:(max 1 (n / 3)) ~seed in
  let rng = Random.State.make [| seed; 0xbeef |] in
  let import_pool : Route_map.t option array =
    [|
      None;
      Some
        [
          {
            verdict = Permit;
            conds = [ Match_community [ 1 ] ];
            actions = [ Set_local_pref 200 ];
          };
          { verdict = Permit; conds = []; actions = [] };
        ];
      Some
        [
          { verdict = Deny; conds = [ Match_community [ 2 ] ]; actions = [] };
          { verdict = Permit; conds = []; actions = [] };
        ];
      Some
        [
          {
            verdict = Permit;
            conds = [ Match_community [ 2 ] ];
            actions = [ Set_local_pref 50; Delete_community 2 ];
          };
          { verdict = Permit; conds = []; actions = [] };
        ];
    |]
  in
  let export_pool : Route_map.t option array =
    [|
      None;
      Some
        [ { verdict = Permit; conds = []; actions = [ Add_community 1 ] } ];
      Some
        [ { verdict = Permit; conds = []; actions = [ Add_community 2 ] } ];
    |]
  in
  let routers =
    Array.init n (fun v ->
        let r = Device.default_router (Graph.name g v) in
        let import_rm = import_pool.(Random.State.int rng (Array.length import_pool)) in
        let export_rm = export_pool.(Random.State.int rng (Array.length export_pool)) in
        let nbrs =
          Array.to_list (Graph.succ g v)
          |> List.map (fun u -> (u, { Device.import_rm; export_rm; ibgp = false; rel = Device.Rel_unknown }))
        in
        let r = { r with Device.bgp_neighbors = nbrs } in
        if v = 0 then { r with Device.originated = [ prefix_of_index 0 ] } else r)
  in
  { Device.graph = g; routers }

let random_multi_network ~n ~seed =
  let g = Generators.random_connected ~n ~extra:(max 1 (n / 3)) ~seed in
  let rng = Random.State.make [| seed; 0xd1ce |] in
  (* Nodes are split into a BGP region and an OSPF region; border nodes
     (BGP nodes with an OSPF neighbor) redistribute both ways. *)
  let in_bgp = Array.init n (fun v -> v = 0 || Random.State.bool rng) in
  let routers =
    Array.init n (fun v ->
        let r = Device.default_router (Graph.name g v) in
        let nbrs = Array.to_list (Graph.succ g v) in
        let bgp_neighbors =
          if not in_bgp.(v) then []
          else
            List.filter (fun u -> in_bgp.(u)) nbrs
            |> List.map (fun u ->
                   (u, { Device.import_rm = None; export_rm = None; ibgp = false; rel = Device.Rel_unknown }))
        in
        let ospf_links =
          if in_bgp.(v) then
            (* border routers also speak OSPF towards the OSPF region *)
            List.filter (fun u -> not in_bgp.(u)) nbrs
            |> List.map (fun u ->
                   (u, { Device.cost = 1 + Random.State.int rng 3; area = 0 }))
          else
            List.map
              (fun u -> (u, { Device.cost = 1 + Random.State.int rng 3; area = 0 }))
              nbrs
        in
        let redistribute =
          if in_bgp.(v) && ospf_links <> [] then
            [ Multi.Ospf_into_bgp; Multi.Bgp_into_ospf ]
          else []
        in
        let static_routes =
          match nbrs with
          | nh :: _ when Random.State.int rng 5 = 0 && v <> 0 ->
            [ (prefix_of_index 0, nh) ]
          | _ -> []
        in
        let r =
          {
            r with
            Device.bgp_neighbors;
            ospf_links;
            redistribute;
            static_routes;
          }
        in
        if v = 0 then { r with Device.originated = [ prefix_of_index 0 ] } else r)
  in
  { Device.graph = g; routers }

(* ------------------------------------------------------------------ *)
(* Multi-region WAN: the 10k-router scale fixture.                     *)
(* ------------------------------------------------------------------ *)

(* The aggregate standing in for every destination outside a region. *)
let multiwan_external = Prefix.make (Ipv4.of_octets 10 254 0 0) 16
let multiwan_region_prefix k = Prefix.make (Ipv4.of_octets 10 (k mod 250) 0 0) 16

(* Access-router import variants: the filter classes below behave
   differently on the region's own prefix and on the external aggregate,
   so each region compresses to a handful of roles instead of one. *)
let multiwan_import k j : Route_map.t =
  match j with
  | 0 ->
    (* no external reachability from these access routers *)
    [
      { verdict = Deny; conds = [ Match_prefix [ multiwan_external ] ]; actions = [] };
      { verdict = Permit; conds = [ Match_prefix [ space ] ]; actions = [] };
    ]
  | 1 -> space_filter
  | _ ->
    (* refuse the region's own prefix back from a neighbor *)
    [
      { verdict = Deny;
        conds = [ Match_prefix [ multiwan_region_prefix k ] ];
        actions = [] };
      { verdict = Permit; conds = [ Match_prefix [ space ] ]; actions = [] };
    ]

(* One region's routers: nodes 0 and 1 are the gateways (the region's
   boundary to the core), 2.. are access routers hanging off both
   gateways. *)
(* Dual-homed hub-and-spoke: every access router peers with both
   gateways and nothing else, so access routers sharing an import
   variant are exchangeable — the shape compression exploits (a chain
   would pin every router to its distance and compress not at all). *)
let multiwan_region_links ~base ~region_size =
  let link i j = (base + i, base + j) in
  let links = ref [ link 0 1 ] in
  for i = 2 to region_size - 1 do
    links := link i 0 :: link i 1 :: !links
  done;
  List.rev !links

let multiwan_region_router ~k g v ~idx =
  let r = Device.default_router (Graph.name g v) in
  let import_rm =
    if idx < 2 then Some space_filter else Some (multiwan_import k (idx mod 3))
  in
  let r =
    {
      r with
      Device.bgp_neighbors =
        Array.to_list (Graph.succ g v)
        |> List.map (fun u ->
               ( u,
                 {
                   Device.import_rm;
                   export_rm = None;
                   ibgp = false;
                   rel = Device.Rel_unknown;
                 } ));
    }
  in
  if idx = 0 then { r with Device.originated = [ multiwan_region_prefix k ] }
  else r

(* [regions] regions plus a core ring carrying the external aggregate. *)
let multiwan ~regions ~region_size =
  if regions < 1 || regions > 250 then
    invalid_arg "Synthesis.multiwan: regions must be in 1..250";
  if region_size < 3 then
    invalid_arg "Synthesis.multiwan: region_size must be >= 3";
  let b = Graph.Builder.create () in
  for k = 0 to regions - 1 do
    for i = 0 to region_size - 1 do
      ignore (Graph.Builder.add_node b (Printf.sprintf "r%dn%d" k i))
    done
  done;
  let core = Array.init regions (fun k ->
      Graph.Builder.add_node b (Printf.sprintf "core%d" k))
  in
  for k = 0 to regions - 1 do
    List.iter
      (fun (u, v) -> Graph.Builder.add_link b u v)
      (multiwan_region_links ~base:(k * region_size) ~region_size);
    Graph.Builder.add_link b core.(k) (k * region_size);
    Graph.Builder.add_link b core.(k) ((k * region_size) + 1);
    if k > 0 then Graph.Builder.add_link b core.(k - 1) core.(k)
  done;
  if regions > 2 then Graph.Builder.add_link b core.(regions - 1) core.(0);
  let g = Graph.Builder.build b in
  let routers =
    Array.init (Graph.n_nodes g) (fun v ->
        if v < regions * region_size then
          let k = v / region_size and idx = v mod region_size in
          multiwan_region_router ~k g v ~idx
        else begin
          let k = v - (regions * region_size) in
          let r = Device.default_router (Graph.name g v) in
          let r =
            {
              r with
              Device.bgp_neighbors =
                Array.to_list (Graph.succ g v)
                |> List.map (fun u ->
                       ( u,
                         {
                           Device.import_rm = Some space_filter;
                           export_rm = None;
                           ibgp = false;
                           rel = Device.Rel_unknown;
                         } ));
            }
          in
          if k = 0 then { r with Device.originated = [ multiwan_external ] }
          else r
        end)
  in
  {
    net = { Device.graph = g; routers };
    description =
      Printf.sprintf
        "multi-region WAN: %d regions x %d routers + %d-router core \
         (eBGP, neighbor-specific filters, external aggregate)"
        regions region_size regions;
  }

(* The largest network a generated spec may ask for, in nodes plus links,
   checked from the spec's numbers before anything is built: [mesh:N]
   alone has N(N-1)/2 links. The largest specs in use are
   [multiwan:250:40] (30,250) and [fattree:20] (4,500). *)
let max_spec_size = 100_000

let of_spec spec =
  let unknown =
    Error
      (`Unknown
        (Printf.sprintf
           "unknown network %S (expected fattree:K, fattree-prefer:K, \
            ring:N, mesh:N, random:N[:SEED], multiwan:R:S, datacenter, \
            wan, file:PATH)"
           spec))
  in
  (* a size the generator refuses is the spec's fault: its message is
     the answer *)
  let build make =
    match make () with
    | net -> Ok (net, None)
    | exception Invalid_argument m ->
      Error (`Unknown (Printf.sprintf "bad network %S: %s" spec m))
  in
  let too_large =
    Error
      (`Unknown
        (Printf.sprintf "network %S is too large: more than %d nodes and links"
           spec max_spec_size))
  in
  (* A generator has at least as many nodes as the magnitude of any of
     its numbers, so [num] refuses a number past the limit before a size
     computed from it could overflow. *)
  let num s k =
    match int_of_string_opt s with
    | None -> unknown
    | Some n when abs n > max_spec_size -> too_large
    | Some n -> k n
  in
  let sized size make = if size > max_spec_size then too_large else build make in
  let fattree_size k = (5 * k * k / 4) + (k * k * k / 2) in
  let random_size n = n + (n - 1) + max 1 (n / 3) in
  match String.split_on_char ':' spec with
  | "file" :: rest -> (
    match Config_text.load_full (String.concat ":" rest) with
    | Ok (net, locs) -> Ok (net, Some locs)
    | Error ds -> Error (`Parse ds))
  | [ "datacenter" ] -> Ok ((datacenter ()).net, None)
  | [ "wan" ] -> Ok ((wan ()).net, None)
  | [ "fattree"; k ] ->
    num k (fun k ->
        sized (fattree_size k) (fun () ->
            fattree_shortest_path (Generators.fattree ~k)))
  | [ "fattree-prefer"; k ] ->
    num k (fun k ->
        sized (fattree_size k) (fun () ->
            fattree_prefer_bottom (Generators.fattree ~k)))
  | [ "ring"; n ] -> num n (fun n -> sized (2 * n) (fun () -> ring_bgp ~n))
  | [ "mesh"; n ] ->
    num n (fun n -> sized (n + (n * (n - 1) / 2)) (fun () -> mesh_bgp ~n))
  | [ "multiwan"; r; s ] ->
    (* each region: its routers, its core router and 2s links *)
    num r (fun regions ->
        num s (fun region_size ->
            sized
              (regions * ((3 * region_size) + 1))
              (fun () -> (multiwan ~regions ~region_size).net)))
  | [ "random"; n ] ->
    num n (fun n -> sized (random_size n) (fun () -> random_network ~n ~seed:0))
  | [ "random"; n; s ] -> (
    match int_of_string_opt s with
    | Some seed ->
      num n (fun n -> sized (random_size n) (fun () -> random_network ~n ~seed))
    | None -> unknown)
  | _ -> unknown
