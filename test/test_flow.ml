(* Whole-network provenance dataflow: the generic engine (worklist
   fixpoint, widening, budget degradation), the flow checks on the seeded
   leak/transit shapes, Cond_bdd community-encoding edge cases, the
   provider/customer/peer relation round-trip, and two QCheck properties:
   every flow fact over-approximates the simulated solution, and the
   flow-sensitive community-provenance check never flags a community the
   simulator actually delivers. *)

let check_names ds = List.map (fun d -> d.Diag.check) ds
let has_check name ds = List.exists (String.equal name) (check_names ds)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    i + nl <= hl && (String.equal (String.sub hay i nl) needle || go (i + 1))
  in
  go 0

let parse_net s =
  match Config_text.parse s with
  | Ok net -> net
  | Error m -> Alcotest.failf "fixture did not parse: %s" m

(* --- the generic dataflow engine ------------------------------------- *)

let test_dataflow_chain () =
  let r =
    Dataflow.solve
      {
        Dataflow.nodes = 4;
        succ = (fun v -> if v < 3 then [ v + 1 ] else []);
        transfer = (fun ~src:_ ~dst:_ f -> Some (f + 1));
        seeds = [ (0, 0) ];
        join = max;
        equal = Int.equal;
        top = 1000;
        widen = None;
      }
  in
  Alcotest.(check (list (option int)))
    "hop counts propagate"
    [ Some 0; Some 1; Some 2; Some 3 ]
    (Array.to_list r.Dataflow.facts);
  Alcotest.(check bool) "not degraded" true (Option.is_none r.Dataflow.degraded)

let test_dataflow_unreachable () =
  let r =
    Dataflow.solve
      {
        Dataflow.nodes = 3;
        succ = (fun v -> if v = 0 then [ 1 ] else []);
        transfer = (fun ~src:_ ~dst:_ f -> Some f);
        seeds = [ (0, true) ];
        join = ( || );
        equal = Bool.equal;
        top = true;
        widen = None;
      }
  in
  Alcotest.(check (option bool)) "node 2 unreached" None r.Dataflow.facts.(2)

let test_dataflow_widen () =
  (* a 2-cycle whose transfer strictly grows: only widening terminates it *)
  let r =
    Dataflow.solve
      {
        Dataflow.nodes = 2;
        succ = (fun v -> [ 1 - v ]);
        transfer = (fun ~src:_ ~dst:_ f -> Some (f + 1));
        seeds = [ (0, 0) ];
        join = max;
        equal = Int.equal;
        top = max_int;
        widen = Some (fun ~joins f -> if joins > 4 then max_int else f);
      }
  in
  Alcotest.(check bool)
    "cycle terminated at top" true
    (Array.exists (function Some t -> t = max_int | None -> false)
       r.Dataflow.facts)

let test_dataflow_budget () =
  let budget = Budget.create ~max_ticks:3 () in
  let r =
    Dataflow.solve ~budget
      {
        Dataflow.nodes = 16;
        succ = (fun v -> if v < 15 then [ v + 1 ] else []);
        transfer = (fun ~src:_ ~dst:_ f -> Some f);
        seeds = [ (0, false) ];
        join = ( || );
        equal = Bool.equal;
        top = true;
        widen = None;
      }
  in
  Alcotest.(check bool) "degraded" true (Option.is_some r.Dataflow.degraded);
  Alcotest.(check bool)
    "every fact forced to top (sound, not partial)" true
    (Array.for_all (function Some true -> true | _ -> false) r.Dataflow.facts)

(* --- seeded fixtures -------------------------------------------------- *)

(* Multi-hop OSPF->BGP->OSPF leak across two OSPF domains: invisible to
   the per-device redistribution-cycle check (exporter a and re-injector b
   are in different domains), found by the provenance fixpoint. *)
let leak_conf =
  "topology\n  node o\n  node a\n  node m\n  node b\n  node d\n\
  \  link o a\n  link a m\n  link m b\n  link b d\n\n\
   router o\n  ospf link a cost 1\n  originate 10.90.0.0/24\n\n\
   router a\n  ospf link o cost 1\n  bgp neighbor m\n\
  \  redistribute ospf-into-bgp\n\n\
   router m\n  bgp neighbor a\n  bgp neighbor b\n\n\
   router b\n  ospf link d cost 1\n  bgp neighbor m\n\
  \  redistribute bgp-into-ospf\n\n\
   router d\n  ospf link b cost 1\n"

let transit_conf =
  "topology\n  node orig\n  node p1\n  node p2\n  node c\n\
  \  link orig p1\n  link p1 c\n  link c p2\n\n\
   router orig\n  bgp neighbor p1\n  originate 10.99.0.0/24\n\n\
   router p1\n  bgp neighbor orig customer\n  bgp neighbor c customer\n\n\
   router c\n  bgp neighbor p1 provider\n  bgp neighbor p2 provider\n\n\
   router p2\n  bgp neighbor c customer\n"

let test_leak_detected () =
  let net = parse_net leak_conf in
  let ds = Lint_flow.run net in
  Alcotest.(check bool) "flow finds the leak" true
    (has_check "cross-protocol-leak" ds);
  (* the per-device linter is silent on this shape *)
  let per_device = Lint.run net in
  Alcotest.(check bool) "per-device check cannot see it" false
    (has_check "redistribution-cycle" per_device);
  (* diagnostics point at the re-injector *)
  let d =
    List.find (fun d -> String.equal d.Diag.check "cross-protocol-leak") ds
  in
  Alcotest.(check (option string)) "located at b" (Some "b") d.Diag.loc.Diag.router

let test_leak_facts () =
  let net = parse_net leak_conf in
  let ec = List.hd (Ecs.compute net) in
  let t = Flow.analyze net ec in
  let g = net.Device.graph in
  let id name = Option.get (Graph.find_by_name g name) in
  (* the pure-BGP core router never appears in the OSPF plane, and the
     OSPF-only leaf never appears in the BGP plane *)
  Alcotest.(check bool) "m has no ospf fact" true
    (Option.is_none (Flow.fact t (id "m") Flow.Ospf));
  Alcotest.(check bool) "d has no bgp fact" true
    (Option.is_none (Flow.fact t (id "d") Flow.Bgp));
  (* the leaked route at b carries the full story in its taint *)
  match Flow.fact t (id "b") Flow.Ospf with
  | Some (Flow.Facts { provs = pr :: _; _ }) ->
    Alcotest.(check bool) "ospf taint" true (Flow.has pr.Flow.taint Flow.t_ospf);
    Alcotest.(check bool) "ebgp taint" true (Flow.has pr.Flow.taint Flow.t_ebgp);
    Alcotest.(check bool) "redist taint" true
      (Flow.has pr.Flow.taint Flow.t_redist);
    Alcotest.(check int) "exported at a" (id "a") pr.Flow.via_redist
  | _ -> Alcotest.fail "no fact at b's OSPF plane"

let test_transit_detected () =
  let net = parse_net transit_conf in
  let ds = Lint_flow.run net in
  Alcotest.(check int) "both provider sessions flagged" 2
    (List.length
       (List.filter
          (fun d -> String.equal d.Diag.check "unintended-transit")
          ds))

let transit_conf_unannotated =
  "topology\n  node orig\n  node p1\n  node p2\n  node c\n\
  \  link orig p1\n  link p1 c\n  link c p2\n\n\
   router orig\n  bgp neighbor p1\n  originate 10.99.0.0/24\n\n\
   router p1\n  bgp neighbor orig\n  bgp neighbor c\n\n\
   router c\n  bgp neighbor p1\n  bgp neighbor p2\n\n\
   router p2\n  bgp neighbor c\n"

let test_transit_needs_annotations () =
  (* the same valley with no relation annotations is silent: Rel_unknown
     sessions opt out of the transit check *)
  let net = parse_net transit_conf_unannotated in
  Alcotest.(check bool) "unannotated network is silent" false
    (has_check "unintended-transit" (Lint_flow.run net))

let test_clean_networks_silent () =
  List.iter
    (fun net ->
      let ds = Lint_flow.run net in
      Alcotest.(check (list string)) "no flow findings" [] (check_names ds))
    [
      Synthesis.ring_bgp ~n:5;
      Synthesis.fattree_shortest_path (Generators.fattree ~k:4);
    ]

let test_flow_budget_degrades () =
  let net = parse_net leak_conf in
  let ec = List.hd (Ecs.compute net) in
  let t = Flow.analyze ~budget:(Budget.create ~max_ticks:2 ()) net ec in
  Alcotest.(check bool) "degraded" true (Option.is_some (Flow.degraded t));
  (* degraded facts are Unknown, and the checks refuse to report from them *)
  Alcotest.(check bool) "facts are unknown" true
    (match Flow.fact t 0 Flow.Bgp with
    | Some Flow.Unknown -> true
    | _ -> false);
  let ds = Lint_flow.run ~budget:(Budget.create ~max_ticks:2 ()) net in
  Alcotest.(check bool) "leak suppressed" false
    (has_check "cross-protocol-leak" ds);
  Alcotest.(check bool) "degradation reported" true (has_check "flow-degraded" ds)

(* --- relation annotations round-trip ---------------------------------- *)

let test_relation_roundtrip () =
  let net = parse_net transit_conf in
  let reparsed = parse_net (Config_text.print net) in
  let g = reparsed.Device.graph in
  let id name = Option.get (Graph.find_by_name g name) in
  let rel_of r w =
    match Device.bgp_neighbor_config reparsed.Device.routers.(id r) (id w) with
    | Some nb -> nb.Device.rel
    | None -> Alcotest.failf "no session %s -> %s after round-trip" r w
  in
  Alcotest.(check bool) "c sees p1 as provider" true
    (Device.relation_equal (rel_of "c" "p1") Device.Provider);
  Alcotest.(check bool) "p1 sees c as customer" true
    (Device.relation_equal (rel_of "p1" "c") Device.Customer);
  Alcotest.(check bool) "unannotated stays unknown" true
    (Device.relation_equal (rel_of "orig" "p1") Device.Rel_unknown)

(* --- Cond_bdd community-encoding edge cases --------------------------- *)

let comm k = (200 * 65536) + k

let test_empty_community_set () =
  (* [match community {}] matches nothing: its guard is bot, so a clause
     carrying it can never fire and everything falls through *)
  let rm =
    [
      {
        Route_map.verdict = Route_map.Deny;
        conds = [ Route_map.Match_community [] ];
        actions = [];
      };
      { Route_map.verdict = Route_map.Permit; conds = []; actions = [] };
    ]
  in
  let u = Cond_bdd.of_route_map rm in
  Alcotest.(check bool) "empty set is bot" true
    (Bdd.is_bot (Cond_bdd.cond u (Route_map.Match_community [])));
  Alcotest.(check bool) "route-map still permits" true
    (Flow.rm_can_permit u (Some rm) ~dest:(Prefix.of_string "10.0.0.0/24"))

let test_many_communities () =
  (* 70 distinct communities: variable indices past 63 must stay distinct
     (no silent truncation to a word-sized set) *)
  let cs = List.init 70 comm in
  let u = Cond_bdd.create ~comms:cs in
  let rm =
    List.map
      (fun c ->
        {
          Route_map.verdict = Route_map.Permit;
          conds = [ Route_map.Match_community [ c ] ];
          actions = [];
        })
      cs
  in
  Alcotest.(check (list int)) "70 single-community clauses all live" []
    (Cond_bdd.shadowed u rm);
  let a = Cond_bdd.comm u (comm 68) and b = Cond_bdd.comm u (comm 69) in
  Alcotest.(check bool) "high-index communities are distinct" false
    (Bdd.equal a b)

let test_community_on_deny () =
  (* a community matched only by a deny clause still counts as matched:
     the deny can only fire if the community can arrive *)
  let dest = Prefix.of_string "10.0.0.0/24" in
  let rm =
    [
      {
        Route_map.verdict = Route_map.Deny;
        conds = [ Route_map.Match_community [ comm 1 ] ];
        actions = [];
      };
      { Route_map.verdict = Route_map.Permit; conds = []; actions = [] };
    ]
  in
  let u = Cond_bdd.create ~comms:[ comm 1 ] in
  Alcotest.(check (list int)) "deny clause match is visible" [ comm 1 ]
    (Flow.reachable_matched u rm ~dest);
  Alcotest.(check (list int)) "deny clause adds nothing" []
    (Flow.reachable_added u rm ~dest)

(* --- QCheck: over-approximation of the simulator ----------------------- *)

let gen_network : Device.network QCheck.arbitrary =
  QCheck.make ~print:Config_text.print
    QCheck.Gen.(
      oneof
        [
          map (fun n -> Synthesis.ring_bgp ~n) (int_range 3 8);
          map
            (fun k -> Synthesis.fattree_shortest_path (Generators.fattree ~k))
            (return 4);
          map2
            (fun n seed -> Synthesis.random_network ~n ~seed)
            (int_range 4 10) (int_range 0 1000);
          map2
            (fun n seed -> Synthesis.random_multi_network ~n ~seed)
            (int_range 4 10) (int_range 0 1000);
        ])

let take k l = List.filteri (fun i _ -> i < k) l

(* Whenever the stable solution delivers a route to a router, the flow
   fact at that router admits it: matching origin, community superset, and
   a populated OSPF plane when OSPF delivered. No false "unreachable
   origin" verdicts. *)
let prop_overapproximates =
  QCheck.Test.make ~name:"flow facts over-approximate the solution" ~count:60
    gen_network (fun net ->
      let n = Graph.n_nodes net.Device.graph in
      List.for_all
        (fun (ec : Ecs.ec) ->
          match ec.Ecs.ec_origins with
          | [ dest ] -> (
            let t = Flow.analyze net ec in
            let srp =
              Compile.multi_srp net ~dest ~dest_prefix:ec.Ecs.ec_prefix
            in
            match Solver.solve srp with
            | Error _ -> true (* divergence: nothing to compare against *)
            | Ok (sol, _) ->
              List.for_all
                (fun u ->
                  match Solution.label sol u with
                  | None -> true
                  | Some (a : Multi.attr) ->
                    let bgp_ok =
                      match a.Multi.bgp with
                      | None -> true
                      | Some b -> (
                        match Flow.fact t u Flow.Bgp with
                        | None -> false
                        | Some Flow.Unknown -> true
                        | Some (Flow.Facts { provs; comms }) ->
                          List.exists
                            (fun (pr : Flow.prov) -> Int.equal pr.Flow.org dest)
                            provs
                          && List.for_all
                               (fun c -> List.exists (Int.equal c) comms)
                               b.Multi.battr.Bgp.comms)
                    in
                    let ospf_ok =
                      match a.Multi.ospf with
                      | None -> true
                      | Some _ -> (
                        match Flow.fact t u Flow.Ospf with
                        | None -> false
                        | Some _ -> true)
                    in
                    bgp_ok && ospf_ok)
                (List.init n Fun.id))
          | _ -> true (* anycast classes are not compiled *))
        (take 3 (Ecs.compute net)))

(* --- QCheck: community-provenance never flags a delivered community ---- *)

let comm_pool = [ comm 11; comm 12; comm 13 ]

(* Rings decorated with random community policy: exports randomly add a
   pool community, imports randomly match one (match-only, so the arriving
   route a flagged import matched against is exactly the simulated one). *)
let gen_comm_network : Device.network QCheck.arbitrary =
  QCheck.make ~print:Config_text.print
    QCheck.Gen.(
      let rm_add c =
        Some
          [
            {
              Route_map.verdict = Route_map.Permit;
              conds = [];
              actions = [ Route_map.Add_community c ];
            };
          ]
      in
      let rm_match c =
        Some
          [
            {
              Route_map.verdict = Route_map.Permit;
              conds = [ Route_map.Match_community [ c ] ];
              actions = [];
            };
            { Route_map.verdict = Route_map.Permit; conds = []; actions = [] };
          ]
      in
      let pick_comm = oneofl comm_pool in
      let gen_export =
        oneof [ return None; map rm_add pick_comm ]
      and gen_import =
        oneof [ return None; map rm_match pick_comm ]
      in
      int_range 3 7 >>= fun n ->
      let net = Synthesis.ring_bgp ~n in
      let decorate r =
        let nbrs = r.Device.bgp_neighbors in
        List.fold_right
          (fun (w, nb) acc_gen ->
            acc_gen >>= fun acc ->
            gen_import >>= fun import_rm ->
            gen_export >>= fun export_rm ->
            return
              ((w, { nb with Device.import_rm; export_rm }) :: acc))
          nbrs (return [])
        >>= fun bgp_neighbors -> return { r with Device.bgp_neighbors }
      in
      let rec decorate_all i acc =
        if i < 0 then return acc
        else
          decorate net.Device.routers.(i) >>= fun r ->
          decorate_all (i - 1) (r :: acc)
      in
      decorate_all (Array.length net.Device.routers - 1) [] >>= fun rs ->
      return { net with Device.routers = Array.of_list rs })

let prop_no_delivered_community_flagged =
  QCheck.Test.make
    ~name:"community-provenance never flags a delivered community" ~count:60
    gen_comm_network (fun net ->
      let ds = Lint_flow.run net in
      let flagged =
        List.filter
          (fun d -> String.equal d.Diag.check "community-provenance")
          ds
      in
      match flagged with
      | [] -> true
      | flagged ->
      let g = net.Device.graph in
      let id name = Option.get (Graph.find_by_name g name) in
      let sols =
        List.filter_map
          (fun (ec : Ecs.ec) ->
            match ec.Ecs.ec_origins with
            | [ dest ] -> (
              match
                Solver.solve
                  (Compile.multi_srp net ~dest ~dest_prefix:ec.Ecs.ec_prefix)
              with
              | Ok (sol, _) -> Some sol
              | Error _ -> None)
            | _ -> None)
          (Ecs.compute net)
      in
      List.for_all
        (fun d ->
          let r = id (Option.get d.Diag.loc.Diag.router) in
          let w = id (Option.get d.Diag.loc.Diag.neighbor) in
          (* the message names the direction and the community *)
          let is_import = contains d.Diag.message "import" in
          let c =
            List.find
              (fun c ->
                contains d.Diag.message (Config_text.community_to_string c))
              comm_pool
          in
          List.for_all
            (fun sol ->
              if is_import then
                (* the flagged import matched the arriving route: imports
                   in this generator are match-only, so the simulated
                   arriving attribute is exactly what the match saw *)
                List.for_all
                  (fun ((_, v), (a : Multi.attr)) ->
                    (not (Int.equal v w))
                    ||
                    match a.Multi.bgp with
                    | None -> true
                    | Some b ->
                      not (List.exists (Int.equal c) b.Multi.battr.Bgp.comms))
                  (Solution.choices sol r)
              else
                (* the flagged export matched r's own chosen route *)
                match Solution.label sol r with
                | Some { Multi.bgp = Some b; _ } ->
                  not (List.exists (Int.equal c) b.Multi.battr.Bgp.comms)
                | _ -> true)
            sols)
        flagged)

(* ---------------------------------------------------------------------- *)

let () =
  Alcotest.run "flow"
    [
      ( "dataflow",
        [
          Alcotest.test_case "chain" `Quick test_dataflow_chain;
          Alcotest.test_case "unreachable" `Quick test_dataflow_unreachable;
          Alcotest.test_case "widening" `Quick test_dataflow_widen;
          Alcotest.test_case "budget degrades to top" `Quick
            test_dataflow_budget;
        ] );
      ( "checks",
        [
          Alcotest.test_case "multi-hop leak detected" `Quick
            test_leak_detected;
          Alcotest.test_case "leak facts" `Quick test_leak_facts;
          Alcotest.test_case "transit detected" `Quick test_transit_detected;
          Alcotest.test_case "transit needs annotations" `Quick
            test_transit_needs_annotations;
          Alcotest.test_case "clean networks silent" `Quick
            test_clean_networks_silent;
          Alcotest.test_case "budget degrades" `Quick test_flow_budget_degrades;
        ] );
      ( "relations",
        [ Alcotest.test_case "round-trip" `Quick test_relation_roundtrip ] );
      ( "cond-bdd",
        [
          Alcotest.test_case "empty community set" `Quick
            test_empty_community_set;
          Alcotest.test_case "70 communities" `Quick test_many_communities;
          Alcotest.test_case "community on deny" `Quick test_community_on_deny;
        ] );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [ prop_overapproximates; prop_no_delivered_community_flagged ] );
    ]
