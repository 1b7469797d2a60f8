(* End-to-end CP-equivalence (Theorems 4.2 and 4.5): compress random
   networks, solve both sides, and check label- and fwd-equivalence via the
   constructed refinement. Also: preservation of the §4.4 properties. *)

let uniform_signature _ _ = 0
let no_prefs _ = []

let bare_net graph =
  {
    Device.graph;
    routers =
      Array.init (Graph.n_nodes graph) (fun v ->
          Device.default_router (Graph.name graph v));
  }

let compress_bare ?(signature = uniform_signature) ?(prefs = no_prefs) graph
    ~dest =
  let net = bare_net graph in
  let partition, _ = Refine.find_partition net ~dest ~signature ~prefs in
  let universe = Policy_bdd.universe_of_network net in
  Abstraction.make net ~dest ~dest_prefix:(Prefix.of_string "10.0.0.0/24")
    ~universe ~partition
    ~copies:(fun m -> List.length (prefs m))

let compress_cfg net ec = (Bonsai_api.compress_ec_exn net ec).Bonsai_api.abstraction

(* --- plain protocols on random graphs -------------------------------- *)

let prop_rip_equivalence =
  QCheck.Test.make ~name:"RIP: compress + CP-equivalence" ~count:60
    QCheck.(pair (int_range 2 25) (int_range 0 1000))
    (fun (n, seed) ->
      let g = Generators.random_connected ~n ~extra:(n / 2) ~seed in
      let t = compress_bare g ~dest:0 in
      let sol = Solver.solve_exn (Rip.make g ~dest:0) in
      let abs_srp = Rip.make t.Abstraction.abs_graph ~dest:t.Abstraction.abs_dest in
      let outcome, _ = Equivalence.check_plain ~abs_srp t sol in
      outcome.Equivalence.ok)

let prop_ospf_equivalence_uniform_costs =
  QCheck.Test.make ~name:"OSPF (uniform costs): CP-equivalence" ~count:60
    QCheck.(pair (int_range 2 25) (int_range 0 1000))
    (fun (n, seed) ->
      let g = Generators.random_connected ~n ~extra:(n / 2) ~seed in
      let t = compress_bare g ~dest:0 in
      let sol = Solver.solve_exn (Ospf.make g ~dest:0) in
      let abs_srp =
        Ospf.make t.Abstraction.abs_graph ~dest:t.Abstraction.abs_dest
      in
      let outcome, _ = Equivalence.check_plain ~abs_srp t sol in
      outcome.Equivalence.ok)

(* OSPF with per-node cost classes: the signature must include the cost *)
let prop_ospf_equivalence_cost_classes =
  QCheck.Test.make ~name:"OSPF (cost classes): CP-equivalence" ~count:60
    QCheck.(pair (int_range 2 20) (int_range 0 1000))
    (fun (n, seed) ->
      let g = Generators.random_connected ~n ~extra:(n / 2) ~seed in
      let cost u _v = 1 + (u mod 3) in
      let t =
        compress_bare ~signature:(fun u v -> cost u v) g ~dest:0
      in
      let sol = Solver.solve_exn (Ospf.make ~cost g ~dest:0) in
      (* the abstract cost function reads off a representative member *)
      let abs_cost a _ = 1 + (Abstraction.repr_of_abs t a mod 3) in
      let abs_srp =
        Ospf.make ~cost:abs_cost t.Abstraction.abs_graph
          ~dest:t.Abstraction.abs_dest
      in
      let outcome, _ = Equivalence.check_plain ~abs_srp t sol in
      outcome.Equivalence.ok)

(* OSPF with two areas: the inter-area bit must survive abstraction *)
let prop_ospf_equivalence_areas =
  QCheck.Test.make ~name:"OSPF (two areas): CP-equivalence" ~count:40
    QCheck.(pair (int_range 4 20) (int_range 0 1000))
    (fun (n, seed) ->
      let g = Generators.random_connected ~n ~extra:(n / 2) ~seed in
      let area v = if v < n / 2 then 0 else 1 in
      let t =
        compress_bare ~signature:(fun u v -> (2 * area u) + area v) g ~dest:0
      in
      let sol = Solver.solve_exn (Ospf.make ~area g ~dest:0) in
      let abs_area a = area (Abstraction.repr_of_abs t a) in
      let abs_srp =
        Ospf.make ~area:abs_area t.Abstraction.abs_graph
          ~dest:t.Abstraction.abs_dest
      in
      let outcome, abs_sol = Equivalence.check_plain ~abs_srp t sol in
      outcome.Equivalence.ok
      &&
      (* inter-area labels map to inter-area labels *)
      match abs_sol with
      | None -> false
      | Some abs_sol ->
        List.for_all
          (fun u ->
            match
              (Solution.label sol u, Solution.label abs_sol outcome.Equivalence.fr.(u))
            with
            | Some (a : Ospf.attr), Some b -> a.Ospf.inter_area = b.Ospf.inter_area
            | None, None -> true
            | _ -> false)
          (List.init n Fun.id))

(* the finished abstraction satisfies the Figure 4 conditions *)
let prop_check_conditions_hold =
  QCheck.Test.make ~name:"effective-abstraction conditions hold" ~count:60
    QCheck.(pair (int_range 2 16) (int_range 0 2000))
    (fun (n, seed) ->
      let net = Synthesis.random_network ~n ~seed in
      let ec = List.hd (Ecs.compute net) in
      let r = Bonsai_api.compress_ec_exn net ec in
      match Certify.check_result ~audit:Certify.Full net r with
      | Certify.Certified _ -> true
      | v -> QCheck.Test.fail_reportf "%a" Certify.pp_verdict v)

(* --- configured BGP networks ------------------------------------------ *)

let prop_bgp_equivalence_random_configs =
  QCheck.Test.make ~name:"BGP random configs: CP-equivalence (Thm 4.5)"
    ~count:80
    QCheck.(triple (int_range 2 16) (int_range 0 2000) (int_range 0 3))
    (fun (n, seed, solver_seed) ->
      let net = Synthesis.random_network ~n ~seed in
      let ec = List.hd (Ecs.compute net) in
      let t = compress_cfg net ec in
      let srp = Compile.bgp_srp net ~dest:0 ~dest_prefix:ec.Ecs.ec_prefix in
      match Solver.solve ~seed:solver_seed srp with
      | Error _ -> QCheck.assume_fail ()
      | Ok (sol, _) ->
        let outcome, _ = Equivalence.check_bgp t sol in
        outcome.Equivalence.ok)

let prop_bgp_equivalence_fattree =
  QCheck.Test.make ~name:"BGP fattree policies: CP-equivalence" ~count:8
    QCheck.(pair (oneofl [ 4; 6 ]) QCheck.bool)
    (fun (k, prefer_bottom) ->
      let ft = Generators.fattree ~k in
      let net =
        if prefer_bottom then Synthesis.fattree_prefer_bottom ft
        else Synthesis.fattree_shortest_path ft
      in
      let ec = List.hd (Ecs.compute net) in
      let t = compress_cfg net ec in
      let dest = Ecs.single_origin ec in
      let srp = Compile.bgp_srp net ~dest ~dest_prefix:ec.Ecs.ec_prefix in
      let sol = Solver.solve_exn srp in
      let outcome, _ = Equivalence.check_bgp t sol in
      outcome.Equivalence.ok)

(* --- property preservation (§4.4) -------------------------------------- *)

let prop_reachability_preserved =
  QCheck.Test.make ~name:"reachability preserved through f" ~count:60
    QCheck.(pair (int_range 2 16) (int_range 0 2000))
    (fun (n, seed) ->
      let net = Synthesis.random_network ~n ~seed in
      let ec = List.hd (Ecs.compute net) in
      let t = compress_cfg net ec in
      let srp = Compile.bgp_srp net ~dest:0 ~dest_prefix:ec.Ecs.ec_prefix in
      match Solver.solve srp with
      | Error _ -> QCheck.assume_fail ()
      | Ok (sol, _) ->
        let outcome, abs_sol = Equivalence.check_bgp t sol in
        (match (outcome.Equivalence.ok, abs_sol) with
        | true, Some abs_sol ->
          (* u reaches d iff fr(u) reaches the abstract dest *)
          List.for_all
            (fun u ->
              Properties.reachable sol u
              = Properties.reachable abs_sol outcome.Equivalence.fr.(u))
            (List.init n Fun.id)
        | _ -> false))

(* Shrunk from the two properties above. Router imports that set local
   preference used to leak it over eBGP sessions to every router
   downstream, where [Compile.prefs] does not count it: the ∀∀ split was
   missed and Thm 4.5 failed. LOCAL_PREF now crosses iBGP sessions
   only. *)
let test_lp_stays_behind_ebgp () =
  let n = 10 and seed = 1192 and solver_seed = 0 in
  let net = Synthesis.random_network ~n ~seed in
  let ec = List.hd (Ecs.compute net) in
  let t = compress_cfg net ec in
  let srp = Compile.bgp_srp net ~dest:0 ~dest_prefix:ec.Ecs.ec_prefix in
  match Solver.solve ~seed:solver_seed srp with
  | Error _ -> Alcotest.fail "the concrete network must converge"
  | Ok (sol, _) -> (
    let outcome, abs_sol = Equivalence.check_bgp t sol in
    Alcotest.(check (list string))
      "CP-equivalence" [] outcome.Equivalence.errors;
    match abs_sol with
    | None -> Alcotest.fail "the abstract network must converge"
    | Some abs_sol ->
      List.iter
        (fun u ->
          Alcotest.(check bool)
            (Printf.sprintf "router %d reaches the destination iff f(%d) does"
               u u)
            (Properties.reachable sol u)
            (Properties.reachable abs_sol outcome.Equivalence.fr.(u)))
        (List.init n Fun.id))

let prop_path_lengths_preserved =
  QCheck.Test.make ~name:"path lengths preserved through f" ~count:40
    QCheck.(pair (int_range 2 14) (int_range 0 2000))
    (fun (n, seed) ->
      let net = Synthesis.random_network ~n ~seed in
      let ec = List.hd (Ecs.compute net) in
      let t = compress_cfg net ec in
      let srp = Compile.bgp_srp net ~dest:0 ~dest_prefix:ec.Ecs.ec_prefix in
      match Solver.solve srp with
      | Error _ -> QCheck.assume_fail ()
      | Ok (sol, _) ->
        let outcome, abs_sol = Equivalence.check_bgp t sol in
        (match (outcome.Equivalence.ok, abs_sol) with
        | true, Some abs_sol ->
          List.for_all
            (fun u ->
              Properties.path_lengths sol ~src:u
              |> List.sort_uniq compare
              = (Properties.path_lengths abs_sol ~src:outcome.Equivalence.fr.(u)
                 |> List.sort_uniq compare))
            (List.init n Fun.id)
        | _ -> false))

let prop_loops_preserved =
  QCheck.Test.make ~name:"loop-freedom preserved" ~count:40
    QCheck.(pair (int_range 2 16) (int_range 0 2000))
    (fun (n, seed) ->
      let net = Synthesis.random_network ~n ~seed in
      let ec = List.hd (Ecs.compute net) in
      let t = compress_cfg net ec in
      let srp = Compile.bgp_srp net ~dest:0 ~dest_prefix:ec.Ecs.ec_prefix in
      match Solver.solve srp with
      | Error _ -> QCheck.assume_fail ()
      | Ok (sol, _) ->
        let outcome, abs_sol = Equivalence.check_bgp t sol in
        (match (outcome.Equivalence.ok, abs_sol) with
        | true, Some abs_sol ->
          Properties.has_routing_loop sol = Properties.has_routing_loop abs_sol
        | _ -> false))

(* ACLs drop traffic: black holes must appear on both sides alike *)
let prop_blackholes_preserved_under_acls =
  QCheck.Test.make ~name:"black holes (ACL drops) preserved" ~count:40
    QCheck.(pair (int_range 3 14) (int_range 0 2000))
    (fun (n, seed) ->
      let base = Synthesis.random_network ~n ~seed in
      (* deny the destination on all interfaces of one non-dest router *)
      let victim = 1 + (seed mod (n - 1)) in
      let block : Acl.t =
        [ { Acl.permit = false; prefix = Prefix.of_string "10.0.0.0/8" } ]
      in
      let routers = Array.copy base.Device.routers in
      routers.(victim) <-
        {
          (routers.(victim)) with
          Device.acl_out =
            Array.to_list (Graph.succ base.Device.graph victim)
            |> List.map (fun u -> (u, block));
        };
      let net = { base with Device.routers = routers } in
      let ec = List.hd (Ecs.compute net) in
      let t = compress_cfg net ec in
      match
        Solver.solve (Compile.bgp_srp net ~dest:0 ~dest_prefix:ec.Ecs.ec_prefix)
      with
      | Error _ -> QCheck.assume_fail ()
      | Ok (sol, _) ->
        let outcome, abs_sol = Equivalence.check_bgp t sol in
        (match (outcome.Equivalence.ok, abs_sol) with
        | true, Some abs_sol ->
          (* the victim lost its route on both sides *)
          Solution.label sol victim = None
          && Solution.label abs_sol outcome.Equivalence.fr.(victim) = None
          && List.for_all
               (fun u ->
                 Properties.black_hole sol u
                 = Properties.black_hole abs_sol outcome.Equivalence.fr.(u))
               (List.init n Fun.id)
        | _ -> false))

(* convergence transfers: when the concrete network has a stable solution,
   solving the abstract network finds one too (paper §4.4, Convergence) *)
let prop_abstract_converges =
  QCheck.Test.make ~name:"abstract network converges when concrete does"
    ~count:60
    QCheck.(pair (int_range 2 16) (int_range 0 2000))
    (fun (n, seed) ->
      let net = Synthesis.random_network ~n ~seed in
      let ec = List.hd (Ecs.compute net) in
      let t = compress_cfg net ec in
      match
        Solver.solve (Compile.bgp_srp net ~dest:0 ~dest_prefix:ec.Ecs.ec_prefix)
      with
      | Error _ -> QCheck.assume_fail ()
      | Ok _ -> (
        match Solver.solve (Abstraction.bgp_srp t) with
        | Ok (abs_sol, _) -> Solution.is_stable abs_sol
        | Error _ -> false))

(* --- static routing (Theorem 4.3, Figure 6) ---------------------------- *)

let test_static_figure6_fwd_equivalence () =
  (* a(0) - b1(1) - d(3), a(0) - b2(2) - d(3); static routes: a -> b2,
     b2 -> d (Figure 6). b1 and b2 differ (b2 has a static route), so
     they must not merge; fwd-equivalence holds on the abstraction. *)
  let g = Graph.of_links ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let routes = [ (0, 2); (2, 3) ] in
  let has_static u v = List.mem (u, v) routes in
  let net = bare_net g in
  let partition, _ =
    Refine.find_partition net ~dest:3 ~live_self:has_static
      ~signature:(fun u v -> if has_static u v then 1 else 0)
      ~prefs:(fun _ -> [])
  in
  let t =
    Abstraction.make net ~dest:3 ~dest_prefix:(Prefix.of_string "10.0.0.0/24")
      ~universe:(Policy_bdd.universe_of_network net) ~partition
      ~copies:(fun _ -> 1)
  in
  Alcotest.(check bool) "b1/b2 split" true
    (t.Abstraction.group_of.(1) <> t.Abstraction.group_of.(2));
  let srp = Static_route.make g ~dest:3 ~routes in
  let sol = Solver.solve_exn srp in
  (* abstract static routes through representatives *)
  let abs_routes =
    List.filter_map
      (fun (u, v) ->
        let au = Abstraction.f t u and av = Abstraction.f t v in
        if Graph.has_edge t.Abstraction.abs_graph au av then Some (au, av)
        else None)
      routes
  in
  let abs_srp =
    Static_route.make t.Abstraction.abs_graph ~dest:t.Abstraction.abs_dest
      ~routes:abs_routes
  in
  let outcome, _ = Equivalence.check_plain ~abs_srp t sol in
  Alcotest.(check bool)
    (String.concat "; " outcome.Equivalence.errors)
    true outcome.Equivalence.ok

(* --- multi-protocol ------------------------------------------------------ *)

let prop_multi_equivalence_random =
  QCheck.Test.make ~name:"multi-protocol random configs: CP-equivalence"
    ~count:60
    QCheck.(pair (int_range 2 14) (int_range 0 2000))
    (fun (n, seed) ->
      let net = Synthesis.random_multi_network ~n ~seed in
      let ec = List.hd (Ecs.compute net) in
      let t = compress_cfg net ec in
      let srp = Compile.multi_srp net ~dest:0 ~dest_prefix:ec.Ecs.ec_prefix in
      match Solver.solve srp with
      | Error _ -> QCheck.assume_fail ()
      | Ok (sol, _) ->
        let outcome, _ = Equivalence.check_multi t sol in
        (* random static routes can create forwarding cycles, which the
           inductive construction cannot order; skip those instances *)
        if
          List.exists
            (fun e -> e = "concrete forwarding relation is cyclic")
            outcome.Equivalence.errors
        then QCheck.assume_fail ()
        else outcome.Equivalence.ok)


let test_multi_wan_sample_equivalence () =
  (* a small WAN-style network: backbone pair + one PoP with OSPF and
     redistribution; checks the multi-protocol abstraction end to end *)
  let wan = Synthesis.wan () in
  let net = wan.Synthesis.net in
  let ecs = Ecs.compute net in
  (* sample a handful of classes to keep the test quick *)
  let sample = List.filteri (fun i _ -> i mod 199 = 0) ecs in
  Alcotest.(check bool) "have samples" true (List.length sample >= 3);
  List.iter
    (fun ec ->
      match ec.Ecs.ec_origins with
      | [ dest ] ->
        let t = compress_cfg net ec in
        let srp = Compile.multi_srp net ~dest ~dest_prefix:ec.Ecs.ec_prefix in
        (match Solver.solve srp with
        | Error _ -> Alcotest.fail "wan sample diverged"
        | Ok (sol, _) ->
          let outcome, _ = Equivalence.check_multi t sol in
          Alcotest.(check bool)
            (Format.asprintf "%a: %s" Ecs.pp ec
               (String.concat "; " outcome.Equivalence.errors))
            true outcome.Equivalence.ok)
      | _ -> ())
    sample

let test_datacenter_sample_equivalence () =
  let dc = Synthesis.datacenter () in
  let net = dc.Synthesis.net in
  let ecs = Ecs.compute net in
  let sample = List.filteri (fun i _ -> i mod 311 = 0) ecs in
  List.iter
    (fun ec ->
      match ec.Ecs.ec_origins with
      | [ dest ] ->
        let t = compress_cfg net ec in
        let srp = Compile.multi_srp net ~dest ~dest_prefix:ec.Ecs.ec_prefix in
        (match Solver.solve srp with
        | Error _ -> Alcotest.fail "dc sample diverged"
        | Ok (sol, _) ->
          let outcome, _ = Equivalence.check_multi t sol in
          Alcotest.(check bool)
            (Format.asprintf "%a: %s" Ecs.pp ec
               (String.concat "; " outcome.Equivalence.errors))
            true outcome.Equivalence.ok)
      | _ -> ())
    sample

let () =
  Alcotest.run "equivalence"
    [
      ( "static",
        [
          Alcotest.test_case "figure 6" `Quick test_static_figure6_fwd_equivalence;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "lp stays behind eBGP (10, 1192, 0)" `Quick
            test_lp_stays_behind_ebgp;
        ] );
      ( "real-networks",
        [
          Alcotest.test_case "wan samples" `Slow test_multi_wan_sample_equivalence;
          Alcotest.test_case "datacenter samples" `Slow
            test_datacenter_sample_equivalence;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_rip_equivalence;
            prop_ospf_equivalence_uniform_costs;
            prop_ospf_equivalence_cost_classes;
            prop_ospf_equivalence_areas;
            prop_check_conditions_hold;
            prop_bgp_equivalence_random_configs;
            prop_multi_equivalence_random;
            prop_bgp_equivalence_fattree;
            prop_reachability_preserved;
            prop_path_lengths_preserved;
            prop_loops_preserved;
            prop_blackholes_preserved_under_acls;
            prop_abstract_converges;
          ] );
    ]
