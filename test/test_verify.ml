(* Property checkers and the all-pairs reachability engine, including
   concrete/abstract agreement (the soundness claim behind Figure 12). *)

let diamond () = Graph.of_links ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]

let test_reachable_and_blackhole () =
  let g = Graph.of_links ~n:4 [ (0, 1); (1, 2) ] in
  let sol = Solver.solve_exn (Rip.make g ~dest:0) in
  Alcotest.(check bool) "2 reachable" true (Properties.reachable sol 2);
  Alcotest.(check bool) "3 unreachable" false (Properties.reachable sol 3);
  (* an isolated node's own traffic dies immediately: by the paper's
     definition (a path ending with label ⊥) that is a black hole *)
  Alcotest.(check bool) "3 black-holes its own traffic" true
    (Properties.black_hole sol 3)

let test_black_hole_on_partial_path () =
  (* static routing: 2 -> 1 but 1 has no route: traffic from 2 dies at 1 *)
  let g = Graph.of_links ~n:3 [ (0, 1); (1, 2) ] in
  let srp = Static_route.make g ~dest:0 ~routes:[ (2, 1) ] in
  let sol = Solver.solve_exn srp in
  Alcotest.(check bool) "black hole from 2" true (Properties.black_hole sol 2);
  Alcotest.(check bool) "2 not reachable" false (Properties.reachable sol 2)

let test_path_lengths () =
  let sol = Solver.solve_exn (Rip.make (diamond ()) ~dest:0) in
  Alcotest.(check (list int)) "two 2-hop paths" [ 2; 2 ]
    (Properties.path_lengths sol ~src:3)

let test_routing_loop_detection () =
  let g = Graph.of_links ~n:3 [ (0, 1); (1, 2) ] in
  let srp = Static_route.make g ~dest:0 ~routes:[ (1, 2); (2, 1) ] in
  let sol = Solver.solve_exn srp in
  Alcotest.(check bool) "loop" true (Properties.has_routing_loop sol);
  let ok = Solver.solve_exn (Rip.make g ~dest:0) in
  Alcotest.(check bool) "no loop" false (Properties.has_routing_loop ok)

let test_waypointing () =
  let g = Graph.of_links ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let sol = Solver.solve_exn (Rip.make g ~dest:0) in
  Alcotest.(check bool) "through 1" true
    (Properties.waypointed sol ~src:3 ~waypoints:[ 1 ]);
  Alcotest.(check bool) "not through 99" false
    (Properties.waypointed sol ~src:3 ~waypoints:[ 99 ])

let test_multipath_consistency () =
  let sol = Solver.solve_exn (Rip.make (diamond ()) ~dest:0) in
  Alcotest.(check bool) "consistent" true
    (Properties.multipath_consistent sol ~src:3)

let test_multipath_inconsistency () =
  (* static multipath: 3 forwards to both 1 and 2; 1 reaches d, 2 does not *)
  let g = Graph.of_links ~n:4 [ (0, 1); (1, 3); (2, 3) ] in
  let srp = Static_route.make g ~dest:0 ~routes:[ (3, 1); (3, 2); (1, 0) ] in
  let sol = Solver.solve_exn srp in
  Alcotest.(check int) "two fwd edges" 2 (List.length (Solution.fwd sol 3));
  Alcotest.(check bool) "inconsistent" false
    (Properties.multipath_consistent sol ~src:3)

(* --- data plane --------------------------------------------------------- *)

let full_dataplane net = Dataplane.of_network net (Ecs.compute net)

let test_dataplane_fattree () =
  let ft = Generators.fattree ~k:4 in
  let net = Synthesis.fattree_shortest_path ft in
  let dp = full_dataplane net in
  Alcotest.(check int) "all classes solved" 8 (Dataplane.ecs_solved dp);
  (* every router holds an entry for every remote class: 8 ECs, the
     origin itself holds 7 *)
  let e0 = ft.Generators.ft_edge.(0) in
  Alcotest.(check int) "origin fib" 7
    (List.length (Dataplane.fib_entries dp e0));
  let agg = ft.Generators.ft_agg.(0) in
  Alcotest.(check int) "agg fib" 8
    (List.length (Dataplane.fib_entries dp agg));
  (* trace a packet across pods *)
  let dst_addr = Ipv4.of_string "10.0.0.1" in
  let src = ft.Generators.ft_edge.(7) in
  (match Dataplane.trace dp ~src dst_addr with
  | Forwarding.Delivered path ->
    Alcotest.(check int) "5-hop fattree path" 5 (List.length path);
    Alcotest.(check (option int)) "ends at origin" (Some e0)
      (List.nth_opt path (List.length path - 1))
  | _ -> Alcotest.fail "packet not delivered");
  (* ECMP: all 4 equal-cost paths enumerated *)
  let paths = Dataplane.trace_all dp ~src dst_addr in
  Alcotest.(check int) "ecmp paths" 4 (List.length paths);
  (* an address outside every announced prefix is dropped at the source *)
  match Dataplane.trace dp ~src (Ipv4.of_string "192.168.1.1") with
  | Forwarding.Dropped [ s ] -> Alcotest.(check int) "dropped at src" src s
  | _ -> Alcotest.fail "expected an immediate drop"

let test_dataplane_static_loop_detected () =
  let g = Graph.of_links ~n:3 [ (0, 1); (1, 2) ] in
  let p = Prefix.of_string "10.0.0.0/24" in
  let routers =
    [|
      { (Device.default_router "d") with Device.originated = [ p ] };
      { (Device.default_router "r1") with Device.static_routes = [ (p, 2) ] };
      { (Device.default_router "r2") with Device.static_routes = [ (p, 1) ] };
    |]
  in
  let net = { Device.graph = g; routers } in
  let dp = full_dataplane net in
  match Dataplane.trace dp ~src:1 (Ipv4.of_string "10.0.0.1") with
  | Forwarding.Looped path ->
    Alcotest.(check bool) "loop path revisits" true (List.length path >= 3)
  | _ -> Alcotest.fail "expected a loop"

let test_dataplane_on_emitted_abstract_configs () =
  (* the compressed network's configurations produce a data plane whose
     traces deliver exactly when the concrete ones do *)
  let net = Synthesis.fattree_shortest_path (Generators.fattree ~k:4) in
  let ec = List.hd (Ecs.compute net) in
  let t = (Bonsai_api.compress_ec_exn net ec).Bonsai_api.abstraction in
  let emitted = Abstract_config.emit t in
  let dp = full_dataplane emitted in
  let addr = Ipv4.of_string "10.0.0.1" in
  for a = 0 to Abstraction.n_abstract t - 1 do
    if a <> t.Abstraction.abs_dest then
      match Dataplane.trace dp ~src:a addr with
      | Forwarding.Delivered _ -> ()
      | _ -> Alcotest.failf "abstract node %d cannot deliver" a
  done

let test_flows_fields () =
  let ft = Generators.fattree ~k:4 in
  let net = Synthesis.fattree_shortest_path ft in
  let ec = List.hd (Ecs.compute net) in
  let f = Reachability.concrete_flows net ~ec in
  Alcotest.(check int) "all 19 sources reach" 19 f.Reachability.sources_reaching;
  (* same-pod edges: 2 paths; remote-pod edges: 4; aggs and cores fewer *)
  Alcotest.(check bool) "multipath inflates path count" true
    (f.Reachability.total_paths > 19);
  let a = Reachability.abstract_flows net ~ec in
  Alcotest.(check int) "5 abstract roles reach" 5 a.Reachability.sources_reaching;
  Alcotest.(check bool) "abstract path count tiny" true
    (a.Reachability.total_paths <= 5)

(* --- robust (all-solutions) verification ------------------------------ *)

let gadget_srp () =
  (* Figure 2 gadget: multiple stable solutions *)
  let g =
    Graph.of_links ~n:5 [ (0, 1); (0, 2); (0, 3); (4, 1); (4, 2); (4, 3) ]
  in
  let policy u v (a : Bgp.attr) =
    if u >= 1 && u <= 3 && v = 4 then Some { a with Bgp.lp = 200 } else Some a
  in
  Bgp.make ~policy g ~dest:0

let test_robust_reachability_holds () =
  match
    Robust.for_all_solutions (gadget_srp ()) (fun sol ->
        List.for_all (fun u -> Properties.reachable sol u) [ 1; 2; 3; 4 ])
  with
  | Robust.Holds -> ()
  | Robust.Fails _ -> Alcotest.fail "reachability should hold in all solutions"
  | Robust.Sampled_holds _ -> Alcotest.fail "should be exhaustive"

let test_robust_waypoint_solution_dependent () =
  (* "b1 forwards through a" is true in some stable solutions and false in
     others — a property one must not conclude from a single simulation *)
  let prop sol = Properties.waypointed sol ~src:1 ~waypoints:[ 4 ] in
  (match Robust.for_all_solutions (gadget_srp ()) prop with
  | Robust.Fails _ -> ()
  | _ -> Alcotest.fail "expected a counterexample solution");
  match Robust.exists_solution (gadget_srp ()) prop with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a witness solution"

let test_robust_agrees_with_abstraction () =
  (* quantifying over abstract solutions gives the same verdict *)
  let net = Synthesis.fattree_shortest_path (Generators.fattree ~k:4) in
  let ec = List.hd (Ecs.compute net) in
  let t = (Bonsai_api.compress_ec_exn net ec).Bonsai_api.abstraction in
  let abs_srp = Abstraction.bgp_srp t in
  match
    Robust.for_all_solutions abs_srp (fun sol ->
        List.for_all
          (fun a -> Properties.reachable sol a)
          (List.init (Abstraction.n_abstract t) Fun.id))
  with
  | Robust.Holds -> ()
  | Robust.Fails _ | Robust.Sampled_holds _ ->
    Alcotest.fail "abstract reachability should hold exhaustively"

let test_robust_sampling_on_large () =
  let net = Synthesis.ring_bgp ~n:30 in
  let ec = List.hd (Ecs.compute net) in
  let srp = Compile.bgp_srp net ~dest:0 ~dest_prefix:ec.Ecs.ec_prefix in
  match
    Robust.for_all_solutions ~tries:4 srp (fun sol ->
        Properties.reachable sol 15)
  with
  | Robust.Sampled_holds n -> Alcotest.(check bool) "sampled" true (n >= 1)
  | _ -> Alcotest.fail "expected sampling on a 30-node network"

(* --- reachability engine --------------------------------------------- *)

let test_concrete_all_pairs_fattree () =
  let ft = Generators.fattree ~k:4 in
  let net = Synthesis.fattree_shortest_path ft in
  let r = Reachability.concrete_all_pairs net in
  (* one class per edge router *)
  Alcotest.(check int) "ecs" 8 r.Reachability.ecs_done;
  Alcotest.(check int) "pairs" (8 * 19) r.Reachability.pairs;
  Alcotest.(check int) "all reachable" 0 r.Reachability.unreachable

let test_abstract_all_pairs_fattree () =
  let ft = Generators.fattree ~k:4 in
  let net = Synthesis.fattree_shortest_path ft in
  let r = Reachability.abstract_all_pairs net in
  Alcotest.(check int) "ecs" 8 r.Reachability.ecs_done;
  (* 6 abstract nodes per class: 5 non-dest pairs each *)
  Alcotest.(check int) "abstract pairs" (8 * 5) r.Reachability.pairs;
  Alcotest.(check int) "all reachable" 0 r.Reachability.unreachable

let test_queries_agree () =
  let ft = Generators.fattree ~k:4 in
  let net = Synthesis.fattree_shortest_path ft in
  let ec = List.hd (Ecs.compute net) in
  List.iter
    (fun src ->
      Alcotest.(check bool) "query agreement" 
        (Reachability.concrete_query net ~src ~ec)
        (Reachability.abstract_query net ~src ~ec))
    [ 0; 5; 11; 19 ]

let test_acl_blocks_reachability_both_sides () =
  (* drop the EC's prefix on every edge-switch uplink in one pod: traffic
     from that pod cannot reach the destination in pod 0, and the abstract
     network agrees *)
  let ft = Generators.fattree ~k:4 in
  let net = Synthesis.fattree_shortest_path ft in
  let ec = List.hd (Ecs.compute net) in
  let dest = Ecs.single_origin ec in
  let block : Acl.t = [ { permit = false; prefix = ec.Ecs.ec_prefix } ] in
  let pod3_edges =
    Array.to_list ft.Generators.ft_edge
    |> List.filter (fun v -> ft.Generators.ft_pod.(v) = 3 && v <> dest)
  in
  let routers = Array.copy net.Device.routers in
  List.iter
    (fun v ->
      routers.(v) <-
        {
          (routers.(v)) with
          Device.acl_out =
            Array.to_list (Graph.succ net.Device.graph v)
            |> List.map (fun u -> (u, block));
        })
    pod3_edges;
  let net = { net with Device.routers } in
  let src = List.hd pod3_edges in
  Alcotest.(check bool) "concrete blocked" false
    (Reachability.concrete_query net ~src ~ec);
  Alcotest.(check bool) "abstract blocked" false
    (Reachability.abstract_query net ~src ~ec);
  (* an unblocked pod still reaches *)
  let src' =
    Array.to_list ft.Generators.ft_edge
    |> List.find (fun v -> ft.Generators.ft_pod.(v) = 1)
  in
  Alcotest.(check bool) "other pod fine (concrete)" true
    (Reachability.concrete_query net ~src:src' ~ec);
  Alcotest.(check bool) "other pod fine (abstract)" true
    (Reachability.abstract_query net ~src:src' ~ec)

let test_timeout_reported () =
  let net = Synthesis.ring_bgp ~n:40 in
  let r = Reachability.concrete_all_pairs ~timeout_s:(-1.0) net in
  Alcotest.(check bool) "timed out" true r.Reachability.timed_out

let prop_all_pairs_agree_on_random_networks =
  QCheck.Test.make ~name:"concrete vs abstract verdicts agree" ~count:30
    QCheck.(pair (int_range 3 12) (int_range 0 1000))
    (fun (n, seed) ->
      let net = Synthesis.random_network ~n ~seed in
      let ec = List.hd (Ecs.compute net) in
      let r = Bonsai_api.compress_ec_exn net ec in
      let t = r.Bonsai_api.abstraction in
      match Solver.solve (Compile.bgp_srp net ~dest:0 ~dest_prefix:ec.Ecs.ec_prefix) with
      | Error _ -> QCheck.assume_fail ()
      | Ok (sol, _) ->
        let outcome, abs_sol = Equivalence.check Compile.Bgp t sol in
        (match (outcome.Equivalence.ok, abs_sol) with
        | true, Some abs_sol ->
          List.for_all
            (fun u ->
              Properties.reachable sol u
              = Properties.reachable abs_sol outcome.Equivalence.fr.(u))
            (List.init n Fun.id)
        | _ -> false))

let () =
  Alcotest.run "verify"
    [
      ( "properties",
        [
          Alcotest.test_case "reachable/black hole" `Quick
            test_reachable_and_blackhole;
          Alcotest.test_case "partial-path black hole" `Quick
            test_black_hole_on_partial_path;
          Alcotest.test_case "path lengths" `Quick test_path_lengths;
          Alcotest.test_case "loops" `Quick test_routing_loop_detection;
          Alcotest.test_case "waypointing" `Quick test_waypointing;
          Alcotest.test_case "multipath consistent" `Quick
            test_multipath_consistency;
          Alcotest.test_case "multipath inconsistent" `Quick
            test_multipath_inconsistency;
        ] );
      ( "reachability-engine",
        [
          Alcotest.test_case "concrete all-pairs" `Quick
            test_concrete_all_pairs_fattree;
          Alcotest.test_case "abstract all-pairs" `Quick
            test_abstract_all_pairs_fattree;
          Alcotest.test_case "queries agree" `Quick test_queries_agree;
          Alcotest.test_case "acl blocks both sides" `Quick
            test_acl_blocks_reachability_both_sides;
          Alcotest.test_case "timeout" `Quick test_timeout_reported;
        ] );
      ( "dataplane",
        [
          Alcotest.test_case "fattree fibs + traces" `Quick test_dataplane_fattree;
          Alcotest.test_case "static loop" `Quick
            test_dataplane_static_loop_detected;
          Alcotest.test_case "abstract configs" `Quick
            test_dataplane_on_emitted_abstract_configs;
        ] );
      ( "flows",
        [ Alcotest.test_case "fields" `Quick test_flows_fields ] );
      ( "robust",
        [
          Alcotest.test_case "reachability all solutions" `Quick
            test_robust_reachability_holds;
          Alcotest.test_case "solution-dependent waypoint" `Quick
            test_robust_waypoint_solution_dependent;
          Alcotest.test_case "abstract agreement" `Quick
            test_robust_agrees_with_abstraction;
          Alcotest.test_case "sampling fallback" `Quick
            test_robust_sampling_on_large;
        ] );
      ( "agreement",
        List.map QCheck_alcotest.to_alcotest
          [ prop_all_pairs_agree_on_random_networks ] );
    ]
