(* The semantic linter: unit tests for each check, the shadowing
   soundness property (a reported-dead clause can be deleted without
   changing the route-map's semantics on any advertisement), and
   no-false-positive guarantees on the defect-free synthesized
   networks. *)

let c1 = (100 * 65536) + 1
let c2 = (100 * 65536) + 2
let c3 = (100 * 65536) + 3
let p s = Prefix.of_string s

let clause ?(verdict = Route_map.Permit) ?(actions = []) conds =
  { Route_map.verdict; conds; actions }

(* --- shadowing: the semantic-only case ------------------------------- *)

(* Clause 2 is covered by the UNION of clauses 0 and 1 but by neither
   alone: only a semantic check finds it. *)
let union_shadow_rm : Route_map.t =
  [
    clause [ Route_map.Match_community [ c1 ] ];
    clause [ Route_map.Match_community [ c2 ] ];
    clause
      [
        Route_map.Match_prefix [ p "10.1.0.0/16" ];
        Route_map.Match_community [ c1; c2 ];
      ];
    clause ~verdict:Route_map.Deny [];
  ]

let test_union_shadow () =
  let u = Cond_bdd.of_route_map union_shadow_rm in
  Alcotest.(check (list int))
    "only the union-covered clause is dead" [ 2 ]
    (Cond_bdd.shadowed u union_shadow_rm);
  (* no single earlier clause covers it *)
  let guards = List.map (Cond_bdd.guard u) union_shadow_rm in
  let g2 = List.nth guards 2 in
  Alcotest.(check bool)
    "clause 0 alone does not cover it" false
    (Bdd.implies u.Cond_bdd.man g2 (List.nth guards 0));
  Alcotest.(check bool)
    "clause 1 alone does not cover it" false
    (Bdd.implies u.Cond_bdd.man g2 (List.nth guards 1))

let test_no_overreport () =
  (* A clause that merely overlaps earlier ones is alive. *)
  let rm =
    [
      clause [ Route_map.Match_prefix [ p "10.1.0.0/16" ] ];
      clause [ Route_map.Match_prefix [ p "10.0.0.0/8" ] ];
    ]
  in
  let u = Cond_bdd.of_route_map rm in
  Alcotest.(check (list int)) "wider second clause is alive" []
    (Cond_bdd.shadowed u rm);
  (* ...but the /8 destination itself escapes two /9 halves: splitting a
     match does NOT cover the original (destinations are prefixes). *)
  let halves =
    [
      clause [ Route_map.Match_prefix [ p "10.0.0.0/9" ] ];
      clause [ Route_map.Match_prefix [ p "10.128.0.0/9" ] ];
      clause [ Route_map.Match_prefix [ p "10.0.0.0/8" ] ];
    ]
  in
  let u = Cond_bdd.of_route_map halves in
  Alcotest.(check (list int)) "/8 clause not covered by the two /9s" []
    (Cond_bdd.shadowed u halves)

let test_unsatisfiable () =
  let rm =
    [
      clause
        [
          Route_map.Match_prefix [ p "10.2.0.0/16" ];
          Route_map.Match_prefix [ p "10.3.0.0/16" ];
        ];
      clause [];
    ]
  in
  let u = Cond_bdd.of_route_map rm in
  Alcotest.(check bool) "guard is unsatisfiable" true
    (Bdd.is_bot (Cond_bdd.guard u (List.hd rm)));
  Alcotest.(check (list int)) "reported dead" [ 0 ] (Cond_bdd.shadowed u rm)

(* --- shadowing soundness (QCheck) ------------------------------------ *)

let prefix_pool =
  List.map p
    [
      "10.0.0.0/8";
      "10.0.0.0/9";
      "10.128.0.0/9";
      "10.1.0.0/16";
      "10.1.128.0/17";
      "10.2.0.0/16";
      "192.168.7.0/24";
    ]

(* Destinations to probe with: the pool itself plus finer prefixes. *)
let dest_samples =
  prefix_pool
  @ List.map p
      [
        "10.1.2.0/24";
        "10.1.200.0/24";
        "10.77.0.0/16";
        "10.2.3.4/32";
        "192.168.7.128/25";
        "0.0.0.0/0";
      ]

let attr_samples =
  List.map
    (fun comms -> { Bgp.init with Bgp.comms = List.sort_uniq compare comms })
    [ []; [ c1 ]; [ c2 ]; [ c3 ]; [ c1; c2 ]; [ c1; c3 ]; [ c1; c2; c3 ] ]

let gen_route_map : Route_map.t QCheck.arbitrary =
  let open QCheck.Gen in
  let gen_comms = oneofl [ [ c1 ]; [ c2 ]; [ c3 ]; [ c1; c2 ]; [ c2; c3 ] ] in
  let gen_prefixes =
    map
      (fun ps -> List.sort_uniq Prefix.compare ps)
      (list_size (int_range 1 3) (oneofl prefix_pool))
  in
  let gen_cond =
    oneof
      [
        map (fun cs -> Route_map.Match_community cs) gen_comms;
        map (fun ps -> Route_map.Match_prefix ps) gen_prefixes;
      ]
  in
  let gen_actions =
    oneofl
      [ []; [ Route_map.Set_local_pref 200 ]; [ Route_map.Add_community c3 ] ]
  in
  let gen_clause =
    map3
      (fun verdict conds actions -> { Route_map.verdict; conds; actions })
      (oneofl [ Route_map.Permit; Route_map.Deny ])
      (list_size (int_range 0 2) gen_cond)
      gen_actions
  in
  QCheck.make
    ~print:(Format.asprintf "%a" Route_map.pp)
    (list_size (int_range 1 6) gen_clause)

let delete_nth i l = List.filteri (fun j _ -> j <> i) l

let prop_shadowed_deletable =
  QCheck.Test.make ~name:"deleting a shadowed clause preserves eval"
    ~count:500 gen_route_map (fun rm ->
      let u = Cond_bdd.of_route_map rm in
      List.for_all
        (fun i ->
          let rm' = delete_nth i rm in
          List.for_all
            (fun dest ->
              List.for_all
                (fun a ->
                  Route_map.eval rm ~dest a = Route_map.eval rm' ~dest a)
                attr_samples)
            dest_samples)
        (Cond_bdd.shadowed u rm))

(* --- ACLs ------------------------------------------------------------- *)

let test_acl_dead_rules () =
  let acl : Acl.t =
    [
      { permit = true; prefix = p "10.0.0.0/8" };
      { permit = false; prefix = p "10.1.0.0/16" };
      { permit = true; prefix = p "192.168.0.0/16" };
    ]
  in
  let u = Cond_bdd.create ~comms:[] in
  Alcotest.(check (list int))
    "rule inside an earlier rule is dead" [ 1 ]
    (Cond_bdd.acl_dead_rules u acl)

(* --- no false positives on the defect-free networks ------------------- *)

let test_fattree_clean () =
  let net = Synthesis.fattree_shortest_path (Generators.fattree ~k:4) in
  Alcotest.(check int) "fattree:4 lints clean" 0 (List.length (Lint.run net))

let test_wan_clean () =
  (* The WAN aggregation routers redistribute both ways but their import
     filters deny re-entry: the redistribution-cycle check must stay
     quiet. *)
  let net = (Synthesis.wan ()).Synthesis.net in
  Alcotest.(check int) "wan lints clean" 0 (List.length (Lint.run net))

let test_datacenter_infos_only () =
  let net = (Synthesis.datacenter ()).Synthesis.net in
  let ds = Lint.run net in
  Alcotest.(check bool) "no errors or warnings" false
    (List.exists (fun d -> d.Diag.severity <> Diag.Info) ds);
  (* the per-leaf tags really are set and never matched: 86 of them *)
  Alcotest.(check int) "one note per unmatched leaf tag" 86
    (List.length
       (List.filter (fun d -> d.Diag.check = "unmatched-community") ds));
  Alcotest.(check int) "nothing else" 86 (List.length ds)

(* --- source locations -------------------------------------------------- *)

let test_locs () =
  let text =
    String.concat "\n"
      [
        "topology";
        "  node a";
        "  node b";
        "  link a b";
        "";
        "route-map RM";
        "  10 permit";
        "    match prefix 10.0.0.0/8";
        "  20 deny";
        "";
        "router a";
        "  bgp neighbor b export RM";
        "";
        "router b";
        "  bgp neighbor a";
        "";
      ]
  in
  match Config_text.parse_with_locs text with
  | Error e -> Alcotest.fail e
  | Ok (net, locs) ->
    Alcotest.(check (option int)) "router line" (Some 11)
      (Config_text.router_line locs "a");
    Alcotest.(check (option int)) "clause 0 line" (Some 7)
      (Config_text.clause_line locs "RM" 0);
    Alcotest.(check (option int)) "clause 1 line" (Some 9)
      (Config_text.clause_line locs "RM" 1);
    let rm =
      match (List.hd net.Device.routers.(0).Device.bgp_neighbors : int * Device.bgp_neighbor) with
      | _, { Device.export_rm = Some rm; _ } -> rm
      | _ -> Alcotest.fail "export route-map not parsed"
    in
    Alcotest.(check (option string)) "route-map name recovered" (Some "RM")
      (Config_text.rm_name_of locs rm)

(* --- compression blockers: memoized ≡ reference ---------------------- *)

let fuzz_count =
  match Option.bind (Sys.getenv_opt "FUZZ_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 40

let set_actions actions = Some [ clause ~actions [] ]

(* Near-equal maps (one field apart) beside identical copies of each, so
   groups both merge and block. *)
let rm_pool =
  [|
    None;
    Some Route_map.permit_all;
    set_actions [ Route_map.Set_local_pref 100 ];
    set_actions [ Route_map.Set_local_pref 150 ];
    set_actions [ Route_map.Add_community c1 ];
    set_actions [ Route_map.Add_community c2 ];
    Some
      [
        clause ~verdict:Route_map.Deny [ Route_map.Match_community [ c1 ] ];
        clause [];
      ];
  |]

(* [net] with route maps and ACLs redrawn on random interfaces, each map
   a fresh copy so that equal maps are rarely the same value. *)
let perturb rng (net : Device.network) =
  let int k = Random.State.int rng k in
  let copy = Option.map (List.map (fun (cl : Route_map.clause) -> { cl with Route_map.conds = cl.Route_map.conds })) in
  let dests = List.map fst (Device.originations net) in
  let acl () =
    match dests with
    | [] -> None
    | _ ->
      let prefix = List.nth dests (int (List.length dests)) in
      Some [ { Acl.permit = int 2 = 0; prefix }; { Acl.permit = true; prefix = p "0.0.0.0/0" } ]
  in
  let routers =
    Array.map
      (fun (r : Device.router) ->
        {
          r with
          Device.bgp_neighbors =
            List.map
              (fun (v, (c : Device.bgp_neighbor)) ->
                let c =
                  if int 3 = 0 then { c with Device.import_rm = copy rm_pool.(int (Array.length rm_pool)) }
                  else c
                in
                let c =
                  if int 6 = 0 then { c with Device.export_rm = copy rm_pool.(int (Array.length rm_pool)) }
                  else c
                in
                (v, c))
              r.Device.bgp_neighbors;
          acl_out =
            List.filter_map
              (fun v -> if int 8 = 0 then Option.map (fun a -> (v, a)) (acl ()) else None)
              (List.map fst r.Device.bgp_neighbors)
            @ r.Device.acl_out;
        })
      net.Device.routers
  in
  { net with Device.routers }

let fuzz_network seed =
  let rng = Random.State.make [| seed |] in
  let base =
    match seed mod 3 with
    | 0 -> Synthesis.fattree_shortest_path (Generators.fattree ~k:4)
    | 1 -> Synthesis.random_network ~n:(5 + (seed mod 6)) ~seed
    | _ -> Synthesis.ring_bgp ~n:(4 + (seed mod 5))
  in
  perturb rng base

(* The memo behind the blockers: for every destination and every edge,
   the shared-memo policy is the very node a fresh encoding builds. *)
let prop_edge_policies_memo =
  QCheck.Test.make ~count:fuzz_count ~name:"memoized edge policy ≡ fresh"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let net = fuzz_network seed in
      let g = net.Device.graph in
      let u = Policy_bdd.universe_of_network net in
      List.iter
        (fun (dest, _) ->
          let memo = Policy_bdd.edge_policies u net ~dest in
          for v = 0 to Graph.n_nodes g - 1 do
            Array.iter
              (fun w ->
                if
                  not
                    (Policy_bdd.same (memo v w)
                       (Policy_bdd.edge_policy u net ~dest v w))
                then
                  QCheck.Test.fail_reportf "%s: policy on %s<-%s differs"
                    (Prefix.to_string dest) (Graph.name g v) (Graph.name g w))
              (Graph.succ g v)
          done)
        (Device.originations net);
      true)

let prop_blockers_reference =
  QCheck.Test.make ~count:fuzz_count ~name:"memoized blockers ≡ reference"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let net = fuzz_network seed in
      let got = Lint_compress.blockers net
      and want = Blockers_reference.blockers net in
      if got <> want then
        QCheck.Test.fail_reportf "%d blockers, reference %d" (List.length got)
          (List.length want);
      true)

let () =
  Alcotest.run "lint"
    [
      ( "shadowing",
        [
          Alcotest.test_case "union-covered clause (semantic only)" `Quick
            test_union_shadow;
          Alcotest.test_case "live clauses are not reported" `Quick
            test_no_overreport;
          Alcotest.test_case "unsatisfiable conjunction" `Quick
            test_unsatisfiable;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_shadowed_deletable ] );
      ("acl", [ Alcotest.test_case "dead rules" `Quick test_acl_dead_rules ]);
      ( "false-positives",
        [
          Alcotest.test_case "fattree" `Quick test_fattree_clean;
          Alcotest.test_case "wan" `Quick test_wan_clean;
          Alcotest.test_case "datacenter" `Quick test_datacenter_infos_only;
        ] );
      ("locations", [ Alcotest.test_case "line table" `Quick test_locs ]);
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [ prop_edge_policies_memo; prop_blockers_reference ] );
    ]
