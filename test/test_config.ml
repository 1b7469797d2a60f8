(* Configuration language, BDD policy encoding, destination ECs, and the
   synthetic evaluation networks. *)

let dest = Prefix.of_string "10.0.1.0/24"

let rm_set_lp : Route_map.t =
  [
    {
      verdict = Permit;
      conds = [ Match_community [ 1; 2 ] ];
      actions = [ Add_community 3; Set_local_pref 350 ];
    };
    { verdict = Permit; conds = []; actions = [] };
  ]

(* --- route-map evaluation ------------------------------------------- *)

let test_eval_first_match_wins () =
  let a = Bgp.add_comm 1 Bgp.init in
  (match Route_map.eval rm_set_lp ~dest a with
  | Some r ->
    Alcotest.(check int) "lp" 350 r.Bgp.lp;
    Alcotest.(check bool) "community added" true (Bgp.has_comm 3 r)
  | None -> Alcotest.fail "dropped");
  match Route_map.eval rm_set_lp ~dest Bgp.init with
  | Some r -> Alcotest.(check int) "fallthrough keeps lp" 100 r.Bgp.lp
  | None -> Alcotest.fail "dropped"

let test_eval_implicit_deny () =
  let rm : Route_map.t =
    [ { verdict = Permit; conds = [ Match_community [ 7 ] ]; actions = [] } ]
  in
  Alcotest.(check bool) "non-matching denied" true
    (Route_map.eval rm ~dest Bgp.init = None)

let test_eval_deny_clause () =
  let rm : Route_map.t =
    [
      { verdict = Deny; conds = [ Match_community [ 5 ] ]; actions = [] };
      { verdict = Permit; conds = []; actions = [] };
    ]
  in
  Alcotest.(check bool) "deny matches" true
    (Route_map.eval rm ~dest (Bgp.add_comm 5 Bgp.init) = None);
  Alcotest.(check bool) "others pass" true
    (Route_map.eval rm ~dest Bgp.init <> None)

let test_eval_prefix_match () =
  let rm : Route_map.t =
    [
      {
        verdict = Permit;
        conds = [ Match_prefix [ Prefix.of_string "10.0.0.0/8" ] ];
        actions = [];
      };
    ]
  in
  Alcotest.(check bool) "inside" true (Route_map.eval rm ~dest Bgp.init <> None);
  let outside = Prefix.of_string "192.168.0.0/24" in
  Alcotest.(check bool) "outside" true
    (Route_map.eval rm ~dest:outside Bgp.init = None)

let test_relevant_strips_prefix_conds () =
  let rm : Route_map.t =
    [
      {
        verdict = Permit;
        conds = [ Match_prefix [ Prefix.of_string "10.0.0.0/8" ] ];
        actions = [ Set_local_pref 200 ];
      };
      {
        verdict = Permit;
        conds = [ Match_prefix [ Prefix.of_string "192.168.0.0/16" ] ];
        actions = [ Set_local_pref 300 ];
      };
    ]
  in
  let r = Route_map.relevant rm ~dest in
  Alcotest.(check int) "one clause survives" 1 (List.length r);
  Alcotest.(check (list int)) "reachable lps" [ 200 ]
    (Route_map.local_prefs rm ~dest)

let test_community_harvest () =
  Alcotest.(check (list int)) "matched" [ 1; 2 ]
    (Route_map.communities_matched rm_set_lp);
  Alcotest.(check (list int)) "set" [ 3 ] (Route_map.communities_set rm_set_lp)

(* --- ACLs ------------------------------------------------------------ *)

let test_acl () =
  let acl : Acl.t =
    [
      { permit = false; prefix = Prefix.of_string "10.0.1.0/24" };
      { permit = true; prefix = Prefix.of_string "10.0.0.0/8" };
    ]
  in
  Alcotest.(check bool) "denied" false (Acl.permits (Some acl) dest);
  Alcotest.(check bool) "permitted" true
    (Acl.permits (Some acl) (Prefix.of_string "10.0.2.0/24"));
  Alcotest.(check bool) "implicit deny" false
    (Acl.permits (Some acl) (Prefix.of_string "192.168.0.0/24"));
  Alcotest.(check bool) "no acl permits" true (Acl.permits None dest)

(* --- device validation ----------------------------------------------- *)

let test_validate_catches_bad_neighbor () =
  let g = Graph.of_links ~n:3 [ (0, 1) ] in
  let routers =
    Array.init 3 (fun v -> Device.default_router (Graph.name g v))
  in
  routers.(0) <-
    {
      (routers.(0)) with
      Device.bgp_neighbors =
        [ (2, { Device.import_rm = None; export_rm = None; ibgp = false; rel = Device.Rel_unknown }) ];
    };
  match Device.validate { Device.graph = g; routers } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected validation error"

let test_validate_ok_on_synthetic () =
  let dc = Synthesis.datacenter () in
  (match Device.validate dc.Synthesis.net with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let wan = Synthesis.wan () in
  match Device.validate wan.Synthesis.net with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* --- BDD policy encoding --------------------------------------------- *)

let mini_net_with rm =
  (* a 2-node network whose single import route-map is [rm]; used to build
     a universe covering the map *)
  let g = Graph.of_links ~n:2 [ (0, 1) ] in
  let nb rm = { Device.import_rm = rm; export_rm = None; ibgp = false; rel = Device.Rel_unknown } in
  let routers =
    [|
      { (Device.default_router "a") with Device.bgp_neighbors = [ (1, nb (Some rm)) ] };
      { (Device.default_router "b") with Device.bgp_neighbors = [ (0, nb None) ] };
    |]
  in
  { Device.graph = g; routers }

let test_bdd_matches_eval_figure10 () =
  (* The paper's Figure 10 policy *)
  let net = mini_net_with rm_set_lp in
  let u = Policy_bdd.universe_of_network ~keep_unmatched_comms:true net in
  let b = Policy_bdd.encode_route_map u rm_set_lp ~dest in
  List.iter
    (fun comms ->
      let a = List.fold_left (fun a c -> Bgp.add_comm c a) Bgp.init comms in
      let expect = Route_map.eval rm_set_lp ~dest a in
      let got = Policy_bdd.apply u b a in
      Alcotest.(check bool)
        (Printf.sprintf "agree on {%s}"
           (String.concat "," (List.map string_of_int comms)))
        true
        (expect = got))
    [ []; [ 1 ]; [ 2 ]; [ 3 ]; [ 1; 2 ]; [ 1; 3 ]; [ 1; 2; 3 ] ]

let test_bdd_identity_equals_permit_all () =
  let net = mini_net_with rm_set_lp in
  let u = Policy_bdd.universe_of_network net in
  let id = Policy_bdd.identity u in
  let permit_all = Policy_bdd.encode_route_map u Route_map.permit_all ~dest in
  Alcotest.(check bool) "same bdd" true (Policy_bdd.same id permit_all)

let test_bdd_semantic_equality_of_different_syntax () =
  (* matching on communities in a different clause order with the same
     semantics yields the same BDD *)
  let rm1 : Route_map.t =
    [
      { verdict = Permit; conds = [ Match_community [ 1 ] ]; actions = [ Set_local_pref 200 ] };
      { verdict = Permit; conds = [ Match_community [ 2 ] ]; actions = [ Set_local_pref 200 ] };
      { verdict = Permit; conds = []; actions = [] };
    ]
  in
  let rm2 : Route_map.t =
    [
      { verdict = Permit; conds = [ Match_community [ 1; 2 ] ]; actions = [ Set_local_pref 200 ] };
      { verdict = Permit; conds = []; actions = [] };
    ]
  in
  let net = mini_net_with rm1 in
  let u = Policy_bdd.universe_of_network ~keep_unmatched_comms:true net in
  let b1 = Policy_bdd.encode_route_map u rm1 ~dest in
  let b2 = Policy_bdd.encode_route_map u rm2 ~dest in
  Alcotest.(check bool) "semantically equal maps share BDD" true
    (Policy_bdd.same b1 b2)

let test_bdd_drop_all () =
  let net = mini_net_with rm_set_lp in
  let u = Policy_bdd.universe_of_network net in
  let deny = Policy_bdd.encode_route_map u Route_map.deny_all ~dest in
  Alcotest.(check bool) "deny_all = drop_all" true
    (Policy_bdd.same deny (Policy_bdd.drop_all u));
  Alcotest.(check bool) "apply drops" true
    (Policy_bdd.apply u deny Bgp.init = None)

let test_bdd_compose_matches_sequential_eval () =
  let rm_tag : Route_map.t =
    [ { verdict = Permit; conds = []; actions = [ Add_community 1 ] } ]
  in
  let net = mini_net_with rm_set_lp in
  let u = Policy_bdd.universe_of_network ~keep_unmatched_comms:true net in
  let b1 = Policy_bdd.encode_route_map u rm_tag ~dest in
  let b2 = Policy_bdd.encode_route_map u rm_set_lp ~dest in
  let composed = Policy_bdd.compose u b1 b2 in
  List.iter
    (fun comms ->
      let a = List.fold_left (fun a c -> Bgp.add_comm c a) Bgp.init comms in
      let expect =
        Option.bind (Route_map.eval rm_tag ~dest a) (Route_map.eval rm_set_lp ~dest)
      in
      Alcotest.(check bool) "compose = sequential" true
        (Policy_bdd.apply u composed a = expect))
    [ []; [ 1 ]; [ 2 ]; [ 1; 2 ] ]

(* property: BDD encoding agrees with the interpreter on random maps *)

let gen_route_map : Route_map.t QCheck.arbitrary =
  let open QCheck.Gen in
  let comm = int_range 1 4 in
  let cond = map (fun cs -> Route_map.Match_community cs) (list_size (int_range 1 2) comm) in
  let action =
    oneof
      [
        map (fun c -> Route_map.Add_community c) comm;
        map (fun c -> Route_map.Delete_community c) comm;
        oneofl [ Route_map.Set_local_pref 200; Route_map.Set_local_pref 300 ];
        return (Route_map.Set_med 10);
      ]
  in
  let clause =
    let* verdict = frequency [ (3, return Route_map.Permit); (1, return Route_map.Deny) ] in
    let* conds = list_size (int_range 0 2) cond in
    let* actions = if verdict = Route_map.Deny then return [] else list_size (int_range 0 3) action in
    return { Route_map.verdict; conds; actions }
  in
  QCheck.make (list_size (int_range 0 4) clause)

let prop_bdd_matches_interpreter =
  QCheck.Test.make ~name:"BDD policy = route-map interpreter" ~count:200
    gen_route_map (fun rm ->
      let net = mini_net_with rm in
      let u = Policy_bdd.universe_of_network ~keep_unmatched_comms:true net in
      let b = Policy_bdd.encode_route_map u rm ~dest in
      List.for_all
        (fun bits ->
          let comms = List.filter (fun c -> (bits lsr c) land 1 = 1) [ 1; 2; 3; 4 ] in
          let a = List.fold_left (fun a c -> Bgp.add_comm c a) Bgp.init comms in
          Route_map.eval rm ~dest a = Policy_bdd.apply u b a)
        (List.init 32 Fun.id))

let prop_bdd_equal_iff_same_behavior =
  QCheck.Test.make ~name:"BDD pointer equality = behavioral equality" ~count:100
    (QCheck.pair gen_route_map gen_route_map) (fun (rm1, rm2) ->
      (* build one universe covering both maps *)
      let g = Graph.of_links ~n:2 [ (0, 1) ] in
      let nb rm = { Device.import_rm = Some rm; export_rm = None; ibgp = false; rel = Device.Rel_unknown } in
      let routers =
        [|
          { (Device.default_router "a") with Device.bgp_neighbors = [ (1, nb rm1) ] };
          { (Device.default_router "b") with Device.bgp_neighbors = [ (0, nb rm2) ] };
        |]
      in
      let net = { Device.graph = g; routers } in
      let u = Policy_bdd.universe_of_network ~keep_unmatched_comms:true net in
      let b1 = Policy_bdd.encode_route_map u rm1 ~dest in
      let b2 = Policy_bdd.encode_route_map u rm2 ~dest in
      let behave_same =
        List.for_all
          (fun bits ->
            let comms = List.filter (fun c -> (bits lsr c) land 1 = 1) [ 1; 2; 3; 4 ] in
            let mk lp = List.fold_left (fun a c -> Bgp.add_comm c a) { Bgp.init with Bgp.lp } comms in
            (* all universe lp values as inputs *)
            List.for_all
              (fun lp -> Route_map.eval rm1 ~dest (mk lp) = Route_map.eval rm2 ~dest (mk lp))
              (Array.to_list u.Policy_bdd.lps))
          (List.init 32 Fun.id)
      in
      Policy_bdd.same b1 b2 = behave_same)

(* --- prefs ------------------------------------------------------------ *)

let test_prefs () =
  let net = mini_net_with rm_set_lp in
  Alcotest.(check (list int)) "prefs with set" [ 100; 350 ]
    (Compile.prefs net ~dest 0);
  Alcotest.(check (list int)) "default only" [ 100 ] (Compile.prefs net ~dest 1)

(* --- destination equivalence classes ---------------------------------- *)

let test_ecs_basic () =
  let g = Graph.of_links ~n:3 [ (0, 1); (1, 2) ] in
  let routers =
    Array.init 3 (fun v -> Device.default_router (Graph.name g v))
  in
  routers.(0) <-
    { (routers.(0)) with Device.originated = [ Prefix.of_string "10.0.0.0/24" ] };
  routers.(2) <-
    {
      (routers.(2)) with
      Device.originated =
        [ Prefix.of_string "10.0.1.0/24"; Prefix.of_string "10.0.0.0/24" ];
    };
  let net = { Device.graph = g; routers } in
  let ecs = Ecs.compute net in
  Alcotest.(check int) "two classes" 2 (List.length ecs);
  let anycast =
    List.find
      (fun ec -> Prefix.equal ec.Ecs.ec_prefix (Prefix.of_string "10.0.0.0/24"))
      ecs
  in
  Alcotest.(check (list int)) "anycast origins" [ 0; 2 ] anycast.Ecs.ec_origins;
  Alcotest.check_raises "single_origin rejects anycast"
    (Invalid_argument "Ecs.single_origin: 10.0.0.0/24 has 2 origins")
    (fun () -> ignore (Ecs.single_origin anycast))

let test_ecs_ranges () =
  let g = Graph.of_links ~n:2 [ (0, 1) ] in
  let routers = Array.init 2 (fun v -> Device.default_router (Graph.name g v)) in
  routers.(0) <-
    { (routers.(0)) with Device.originated = [ Prefix.of_string "10.0.0.0/8" ] };
  routers.(1) <-
    {
      (routers.(1)) with
      Device.originated =
        [ Prefix.of_string "10.64.0.0/16"; Prefix.of_string "10.0.0.0/16" ];
    };
  let net = { Device.graph = g; routers } in
  let ec8 =
    List.find
      (fun ec -> Prefix.equal ec.Ecs.ec_prefix (Prefix.of_string "10.0.0.0/8"))
      (Ecs.compute net)
  in
  let rs = Ecs.ranges net ec8 in
  (* the /8 minus two /16 holes *)
  Alcotest.(check bool) "holes excluded" true
    (not
       (List.exists
          (fun r ->
            Prefix.overlap r (Prefix.of_string "10.0.0.0/16")
            || Prefix.overlap r (Prefix.of_string "10.64.0.0/16"))
          rs));
  (* ranges plus holes cover the /8: count addresses via prefix sizes *)
  let size p = 1 lsl (32 - (p : Prefix.t).Prefix.len) in
  let total = List.fold_left (fun acc p -> acc + size p) 0 rs in
  Alcotest.(check int) "covers /8 minus two /16" ((1 lsl 24) - (2 * (1 lsl 16))) total;
  (* pairwise disjoint *)
  List.iteri
    (fun i p ->
      List.iteri
        (fun j q ->
          if i <> j then
            Alcotest.(check bool) "disjoint" false (Prefix.overlap p q))
        rs)
    rs;
  (* an EC with no more-specific classes governs exactly its prefix *)
  let ec16 =
    List.find
      (fun ec -> Prefix.equal ec.Ecs.ec_prefix (Prefix.of_string "10.64.0.0/16"))
      (Ecs.compute net)
  in
  Alcotest.(check (list string)) "whole prefix" [ "10.64.0.0/16" ]
    (List.map Prefix.to_string (Ecs.ranges net ec16))

let test_ecs_lpm () =
  let g = Graph.of_links ~n:2 [ (0, 1) ] in
  let routers = Array.init 2 (fun v -> Device.default_router (Graph.name g v)) in
  routers.(0) <-
    { (routers.(0)) with Device.originated = [ Prefix.of_string "10.0.0.0/8" ] };
  routers.(1) <-
    { (routers.(1)) with Device.originated = [ Prefix.of_string "10.1.0.0/16" ] };
  let net = { Device.graph = g; routers } in
  (match Ecs.ec_for net (Ipv4.of_string "10.1.2.3") with
  | Some ec -> Alcotest.(check (list int)) "longest wins" [ 1 ] ec.Ecs.ec_origins
  | None -> Alcotest.fail "no ec");
  match Ecs.ec_for net (Ipv4.of_string "10.2.0.1") with
  | Some ec -> Alcotest.(check (list int)) "fallback" [ 0 ] ec.Ecs.ec_origins
  | None -> Alcotest.fail "no ec"

(* --- synthetic networks ----------------------------------------------- *)

let test_synthetic_counts () =
  let dc = Synthesis.datacenter () in
  Alcotest.(check int) "dc nodes" 197 (Graph.n_nodes dc.Synthesis.net.Device.graph);
  Alcotest.(check int) "dc ecs" (1280 + 24) (Ecs.count dc.Synthesis.net);
  let wan = Synthesis.wan () in
  Alcotest.(check int) "wan nodes" 1086
    (Graph.n_nodes wan.Synthesis.net.Device.graph);
  Alcotest.(check bool) "wan ecs in range" true
    (let n = Ecs.count wan.Synthesis.net in
     n > 700 && n < 1000)

let test_fattree_originators () =
  let ft = Generators.fattree ~k:4 in
  let net = Synthesis.fattree_shortest_path ft in
  (* only edge (ToR) routers originate *)
  Alcotest.(check int) "ecs = edge routers" (Array.length ft.Generators.ft_edge)
    (Ecs.count net)

(* A spec's size is bounded from its numbers alone: these would take far
   more memory than the machine has if the generator ever started. *)
let test_spec_size_refused () =
  List.iter
    (fun spec ->
      match Synthesis.of_spec spec with
      | Error (`Unknown m) ->
        Alcotest.(check bool) (spec ^ " is too large") true
          (List.mem "large:" (String.split_on_char ' ' m))
      | Error (`Parse _) -> Alcotest.failf "%s: parse error" spec
      | Ok _ -> Alcotest.failf "%s: built" spec)
    [ "mesh:40000"; "mesh:447"; "fattree:100000"; "multiwan:250:100000";
      "ring:4611686018427387903"; "random:200000:1" ]

let test_config_lines_scale () =
  let dc = Synthesis.datacenter () in
  Alcotest.(check bool) "datacenter config is large" true
    (Device.config_lines dc.Synthesis.net > 3000)

(* --- compile helpers --------------------------------------------------- *)

let test_matched_comms () =
  let net = mini_net_with rm_set_lp in
  let matched = Compile.matched_comms net in
  Alcotest.(check bool) "1 matched" true (matched 1);
  Alcotest.(check bool) "2 matched" true (matched 2);
  Alcotest.(check bool) "3 set but unmatched" false (matched 3)

let test_bgp_policy_acl_denies () =
  let g = Graph.of_links ~n:2 [ (0, 1) ] in
  let nb = { Device.import_rm = None; export_rm = None; ibgp = false; rel = Device.Rel_unknown } in
  let deny : Acl.t = [ { permit = false; prefix = Prefix.of_string "10.0.0.0/8" } ] in
  let routers =
    [|
      {
        (Device.default_router "a") with
        Device.bgp_neighbors = [ (1, nb) ];
        acl_out = [ (1, deny) ];
      };
      { (Device.default_router "b") with Device.bgp_neighbors = [ (0, nb) ] };
    |]
  in
  let net = { Device.graph = g; routers } in
  (* a's outbound ACL towards b denies the destination: the route a would
     use via b is conservatively filtered *)
  Alcotest.(check bool) "dropped by acl" true
    (Compile.bgp_policy net ~dest 0 1 Bgp.init = None);
  Alcotest.(check bool) "other direction fine" true
    (Compile.bgp_policy net ~dest 1 0 Bgp.init <> None)

let test_policy_bdd_var_names () =
  let net = mini_net_with rm_set_lp in
  let u = Policy_bdd.universe_of_network ~keep_unmatched_comms:true net in
  Alcotest.(check string) "input comm" "comm(1)" (Policy_bdd.var_name u 0);
  Alcotest.(check string) "output comm" "comm(1)'" (Policy_bdd.var_name u 1);
  let drop_field = u.Policy_bdd.width - 1 in
  Alcotest.(check string) "output drop" "drop'"
    (Policy_bdd.var_name u ((3 * drop_field) + 1))

let test_policy_bdd_apply_rejects_unknown_lp () =
  let net = mini_net_with rm_set_lp in
  let u = Policy_bdd.universe_of_network net in
  let b = Policy_bdd.identity u in
  Alcotest.check_raises "lp outside universe"
    (Invalid_argument "Policy_bdd.apply: local-pref outside the universe")
    (fun () -> ignore (Policy_bdd.apply u b { Bgp.init with Bgp.lp = 7777 }))

let test_ios_link_addressing_consistent () =
  (* both ends of each link agree on the /30 and use different hosts *)
  let net = Synthesis.ring_bgp ~n:5 in
  let text = Ios_print.to_string net in
  (* every address appears exactly once across interface stanzas *)
  let addrs =
    String.split_on_char '\n' text
    |> List.filter_map (fun l ->
           let l = String.trim l in
           (* link interfaces only: /30 mask (loopbacks carry the
              originated prefixes) *)
           if
             String.length l > 11
             && String.sub l 0 11 = "ip address "
             && Astring_contains.contains l "255.255.255.252"
           then Some l
           else None)
  in
  Alcotest.(check int) "one interface stanza per directed link" 10
    (List.length addrs);
  Alcotest.(check int) "all distinct" 10
    (List.length (List.sort_uniq compare addrs))

(* --- device helpers ------------------------------------------------------ *)

let test_static_next_hops () =
  let r =
    {
      (Device.default_router "r") with
      Device.static_routes =
        [
          (Prefix.of_string "10.0.0.0/8", 1);
          (Prefix.of_string "10.1.0.0/16", 2);
          (Prefix.of_string "192.168.0.0/16", 3);
        ];
    }
  in
  (* longest match wins among covering statics: /16 beats /8 *)
  Alcotest.(check (list int)) "most specific static wins" [ 2 ]
    (Device.static_next_hops r ~dest:(Prefix.of_string "10.1.2.0/24"));
  Alcotest.(check (list int)) "less specific still covers the rest" [ 1 ]
    (Device.static_next_hops r ~dest:(Prefix.of_string "10.2.0.0/16"));
  Alcotest.(check (list int)) "outside" []
    (Device.static_next_hops r ~dest:(Prefix.of_string "172.16.0.0/16"))

let test_ec_for_outside_space () =
  let net = Synthesis.ring_bgp ~n:4 in
  Alcotest.(check bool) "no class for unannounced space" true
    (Ecs.ec_for net (Ipv4.of_string "192.168.1.1") = None)

let () =
  Alcotest.run "config"
    [
      ( "route-map",
        [
          Alcotest.test_case "first match wins" `Quick test_eval_first_match_wins;
          Alcotest.test_case "implicit deny" `Quick test_eval_implicit_deny;
          Alcotest.test_case "deny clause" `Quick test_eval_deny_clause;
          Alcotest.test_case "prefix match" `Quick test_eval_prefix_match;
          Alcotest.test_case "relevant/local_prefs" `Quick
            test_relevant_strips_prefix_conds;
          Alcotest.test_case "community harvest" `Quick test_community_harvest;
        ] );
      ("acl", [ Alcotest.test_case "first overlap decides" `Quick test_acl ]);
      ( "device",
        [
          Alcotest.test_case "validation failure" `Quick
            test_validate_catches_bad_neighbor;
          Alcotest.test_case "synthetics validate" `Quick
            test_validate_ok_on_synthetic;
        ] );
      ( "policy-bdd",
        [
          Alcotest.test_case "figure 10 policy" `Quick test_bdd_matches_eval_figure10;
          Alcotest.test_case "identity" `Quick test_bdd_identity_equals_permit_all;
          Alcotest.test_case "semantic equality" `Quick
            test_bdd_semantic_equality_of_different_syntax;
          Alcotest.test_case "drop all" `Quick test_bdd_drop_all;
          Alcotest.test_case "compose" `Quick test_bdd_compose_matches_sequential_eval;
        ] );
      ("prefs", [ Alcotest.test_case "extraction" `Quick test_prefs ]);
      ( "ecs",
        [
          Alcotest.test_case "classes + anycast" `Quick test_ecs_basic;
          Alcotest.test_case "disjoint ranges" `Quick test_ecs_ranges;
          Alcotest.test_case "lpm" `Quick test_ecs_lpm;
        ] );
      ( "compile",
        [
          Alcotest.test_case "matched_comms" `Quick test_matched_comms;
          Alcotest.test_case "acl denies route" `Quick test_bgp_policy_acl_denies;
          Alcotest.test_case "bdd var names" `Quick test_policy_bdd_var_names;
          Alcotest.test_case "apply guards lp" `Quick
            test_policy_bdd_apply_rejects_unknown_lp;
          Alcotest.test_case "ios addressing" `Quick
            test_ios_link_addressing_consistent;
          Alcotest.test_case "static next hops" `Quick test_static_next_hops;
          Alcotest.test_case "ec_for outside" `Quick test_ec_for_outside_space;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "dc/wan counts" `Quick test_synthetic_counts;
          Alcotest.test_case "fattree originators" `Quick test_fattree_originators;
          Alcotest.test_case "config scale" `Quick test_config_lines_scale;
          Alcotest.test_case "oversized spec refused" `Quick
            test_spec_size_refused;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_bdd_matches_interpreter; prop_bdd_equal_iff_same_behavior ] );
    ]
