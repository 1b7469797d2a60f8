(* Tests for lib/dataplane: FIB compilation corner cases (LPM on
   overlapping prefixes, static ECMP, first-match ACL semantics, dangling
   next hops), the differential compiler (Dp_diff: reuse proofs, change
   reports, budget degradation), and the concrete↔abstract data-plane
   bisimulation (Dp_bisim) — including the property that compression
   results bisimulate on random networks and that a corrupted
   abstraction is refuted with a typed witness.

   QCheck iterations default small; scale with FUZZ_COUNT. *)

let fuzz_count =
  match Option.bind (Sys.getenv_opt "FUZZ_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 25

let p_of = Prefix.of_string
let a_of = Ipv4.of_string

(* --- FIB corner cases -------------------------------------------------- *)

(* d1(0) -- m(1) -- d2(2): d1 owns 10.0.0.0/16, d2 the nested
   10.0.0.0/24. LPM at m must send /24 addresses right and the rest of
   the /16 left. *)
let overlap_net () =
  let g = Graph.of_links ~n:3 [ (0, 1); (1, 2) ] in
  let p16 = p_of "10.0.0.0/16" and p24 = p_of "10.0.0.0/24" in
  let routers =
    [|
      { (Device.default_router "d1") with Device.originated = [ p16 ] };
      {
        (Device.default_router "m") with
        Device.static_routes = [ (p16, 0); (p24, 2) ];
      };
      { (Device.default_router "d2") with Device.originated = [ p24 ] };
    |]
  in
  { Device.graph = g; routers }

let test_lpm_overlap () =
  let dp = Dataplane.of_network (overlap_net ()) in
  Alcotest.(check (list int)) "/24 wins at m" [ 2 ]
    (Dataplane.lookup dp 1 (a_of "10.0.0.5"));
  Alcotest.(check (list int)) "/16 covers the rest" [ 0 ]
    (Dataplane.lookup dp 1 (a_of "10.0.77.5"));
  (match Dataplane.trace dp ~src:1 (a_of "10.0.0.5") with
  | Dataplane.Delivered [ 1; 2 ] -> ()
  | _ -> Alcotest.fail "nested /24 not delivered to d2");
  match Dataplane.trace dp ~src:1 (a_of "10.0.77.5") with
  | Dataplane.Delivered [ 1; 0 ] -> ()
  | _ -> Alcotest.fail "/16 remainder not delivered to d1"

(* diamond m(0) -- {a(1), b(2)} -- d(3): two equal static routes at m. *)
let test_static_ecmp () =
  let g = Graph.of_links ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let p = p_of "10.0.0.0/24" in
  let routers =
    [|
      {
        (Device.default_router "m") with
        Device.static_routes = [ (p, 1); (p, 2) ];
      };
      { (Device.default_router "a") with Device.static_routes = [ (p, 3) ] };
      { (Device.default_router "b") with Device.static_routes = [ (p, 3) ] };
      { (Device.default_router "d") with Device.originated = [ p ] };
    |]
  in
  let dp = Dataplane.of_network { Device.graph = g; routers } in
  Alcotest.(check (list int)) "both next hops" [ 1; 2 ]
    (List.sort compare (Dataplane.lookup dp 0 (a_of "10.0.0.1")));
  let paths = Dataplane.trace_all dp ~src:0 (a_of "10.0.0.1") in
  Alcotest.(check int) "two ecmp paths" 2 (List.length paths);
  List.iter
    (function
      | Dataplane.Delivered _ -> ()
      | _ -> Alcotest.fail "ecmp path not delivered")
    paths

(* d(0) -- m(1) -- s(2), all-static; m's outbound ACL towards d denies
   p1 (before a broad permit), permits p2, and matches nothing for p3
   (implicit deny on a non-empty ACL). *)
let acl_net ~with_acl () =
  let g = Graph.of_links ~n:3 [ (0, 1); (1, 2) ] in
  let p1 = p_of "10.0.0.0/24"
  and p2 = p_of "10.0.1.0/24"
  and p3 = p_of "172.16.0.0/24" in
  let statics = [ (p1, 0); (p2, 0); (p3, 0) ] in
  let acl_out =
    if with_acl then
      [
        ( 0,
          [
            { Acl.permit = false; prefix = p1 };
            { Acl.permit = true; prefix = p_of "10.0.0.0/8" };
          ] );
      ]
    else []
  in
  let routers =
    [|
      { (Device.default_router "d") with Device.originated = [ p1; p2; p3 ] };
      {
        (Device.default_router "m") with
        Device.static_routes = statics;
        acl_out;
      };
      {
        (Device.default_router "s") with
        Device.static_routes = [ (p1, 1); (p2, 1); (p3, 1) ];
      };
    |]
  in
  { Device.graph = g; routers }

let test_acl_first_match () =
  let dp = Dataplane.of_network (acl_net ~with_acl:true ()) in
  let entry p =
    match
      List.find_opt
        (fun (e : Dataplane.entry) -> Prefix.equal e.Dataplane.e_prefix p)
        (Dataplane.fib_entries dp 1)
    with
    | Some e -> e
    | None -> Alcotest.fail "m has no entry"
  in
  (* deny-then-permit: the deny clause wins even though the later permit
     also covers p1 — an ACL-induced blackhole *)
  let e1 = entry (p_of "10.0.0.0/24") in
  Alcotest.(check (list int)) "p1 blackholed" [] e1.Dataplane.e_next_hops;
  Alcotest.(check (list int)) "p1 drop recorded" [ 0 ]
    e1.Dataplane.e_acl_dropped;
  (* the permit clause passes p2 *)
  let e2 = entry (p_of "10.0.1.0/24") in
  Alcotest.(check (list int)) "p2 forwarded" [ 0 ] e2.Dataplane.e_next_hops;
  (* no clause matches p3: implicit deny *)
  let e3 = entry (p_of "172.16.0.0/24") in
  Alcotest.(check (list int)) "p3 implicit deny" [] e3.Dataplane.e_next_hops;
  (match Dataplane.trace dp ~src:2 (a_of "10.0.0.1") with
  | Dataplane.Dropped [ 2; 1 ] -> ()
  | _ -> Alcotest.fail "p1 should drop at m");
  match Dataplane.trace dp ~src:2 (a_of "10.0.1.1") with
  | Dataplane.Delivered [ 2; 1; 0 ] -> ()
  | _ -> Alcotest.fail "p2 should deliver"

(* ACL-free network: the fold must be invisible (Acl.permits None = true). *)
let test_aclfree_untouched () =
  let dp = Dataplane.of_network (acl_net ~with_acl:false ()) in
  List.iter
    (fun (e : Dataplane.entry) ->
      Alcotest.(check (list int)) "nothing dropped" [] e.Dataplane.e_acl_dropped)
    (Dataplane.fib_entries dp 1);
  match Dataplane.trace dp ~src:2 (a_of "10.0.0.1") with
  | Dataplane.Delivered [ 2; 1; 0 ] -> ()
  | _ -> Alcotest.fail "p1 should deliver without the ACL"

(* d(0) -- r1(1) -- r2(2): r2 points at r1, which has no route at all —
   the walk must stop with a drop at r1, not an error. *)
let test_dangling_next_hop () =
  let g = Graph.of_links ~n:3 [ (0, 1); (1, 2) ] in
  let p = p_of "10.0.0.0/24" in
  let routers =
    [|
      { (Device.default_router "d") with Device.originated = [ p ] };
      Device.default_router "r1";
      { (Device.default_router "r2") with Device.static_routes = [ (p, 1) ] };
    |]
  in
  let dp = Dataplane.of_network { Device.graph = g; routers } in
  match Dataplane.trace dp ~src:2 (a_of "10.0.0.1") with
  | Dataplane.Dropped [ 2; 1 ] -> ()
  | _ -> Alcotest.fail "expected a drop at the dangling hop"

(* --- Dp_diff ----------------------------------------------------------- *)

let run_diff ?budget ?cache old_net new_net =
  match
    Dp_diff.run ?budget ?cache ~old_net ~new_net (Delta.diff old_net new_net)
  with
  | Ok rep -> rep
  | Error e ->
    Alcotest.fail (Format.asprintf "dp_diff failed: %a" Bonsai_error.pp e)

let test_diff_identical () =
  let net = Synthesis.ring_bgp ~n:6 in
  let rep = run_diff net net in
  Alcotest.(check bool) "unchanged" false (Dp_diff.changed rep);
  Alcotest.(check int) "all reused" rep.Dp_diff.dp_classes
    rep.Dp_diff.dp_reused;
  Alcotest.(check int) "nothing recompiled" 0 rep.Dp_diff.dp_recompiled;
  Alcotest.(check (list string)) "no unknown" []
    (List.map Prefix.to_string rep.Dp_diff.dp_unknown)

(* d(0) -- m(1) -- s(2) -- t(3): the ACL sits at s towards m, one hop
   away from the destination, so the Acl_set delta's touched set {s, m}
   leaves d alone and the untouched class (p2) can be proven clean. *)
let diff_acl_net ~with_acl () =
  let g = Graph.of_links ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let p1 = p_of "10.0.0.0/24"
  and p2 = p_of "10.0.1.0/24"
  and p3 = p_of "172.16.0.0/24" in
  let statics nh = [ (p1, nh); (p2, nh); (p3, nh) ] in
  let acl_out =
    if with_acl then
      [
        ( 1,
          [
            { Acl.permit = false; prefix = p1 };
            { Acl.permit = true; prefix = p_of "10.0.0.0/8" };
          ] );
      ]
    else []
  in
  let routers =
    [|
      { (Device.default_router "d") with Device.originated = [ p1; p2; p3 ] };
      { (Device.default_router "m") with Device.static_routes = statics 0 };
      {
        (Device.default_router "s") with
        Device.static_routes = statics 1;
        acl_out;
      };
      { (Device.default_router "t") with Device.static_routes = statics 2 };
    |]
  in
  { Device.graph = g; routers }

let test_diff_acl_change () =
  let old_net = diff_acl_net ~with_acl:false () in
  let new_net = diff_acl_net ~with_acl:true () in
  let rep = run_diff old_net new_net in
  Alcotest.(check bool) "changed" true (Dp_diff.changed rep);
  let added, removed, modified = Dp_diff.counts rep in
  Alcotest.(check (list int)) "modified only" [ 0; 0; 2 ]
    [ added; removed; modified ];
  (* p1 (deny clause) and p3 (implicit deny) blackhole at m; p2's class
     is untouched by the ACL's signature and must be reused *)
  let mods =
    List.map
      (fun (c : Dp_diff.change) -> Prefix.to_string c.Dp_diff.c_prefix)
      rep.Dp_diff.dp_changes
  in
  Alcotest.(check (list string)) "blackholed prefixes"
    [ "10.0.0.0/24"; "172.16.0.0/24" ]
    (List.sort compare mods);
  List.iter
    (fun (c : Dp_diff.change) ->
      Alcotest.(check int) "at s" 2 c.Dp_diff.c_router;
      match (c.Dp_diff.c_old, c.Dp_diff.c_new) with
      | Some o, Some n ->
        Alcotest.(check (list int)) "was forwarding" [ 1 ]
          o.Dataplane.e_next_hops;
        Alcotest.(check (list int)) "now blackholed" [] n.Dataplane.e_next_hops;
        Alcotest.(check (list int)) "drop recorded" [ 1 ]
          n.Dataplane.e_acl_dropped
      | _ -> Alcotest.fail "modified change must carry both entries")
    rep.Dp_diff.dp_changes;
  (* p2 passes the ACL on both sides: its per-class edge signatures are
     equal across the delta, so the clean-class proof must fire *)
  Alcotest.(check int) "p2 class reused" 1 rep.Dp_diff.dp_reused

let test_diff_budget_unknown () =
  let old_net = Synthesis.ring_bgp ~n:4 in
  let new_net = Synthesis.ring_bgp ~n:6 in
  let budget = Budget.create ~max_ticks:1 () in
  let rep = run_diff ~budget old_net new_net in
  Alcotest.(check bool) "unknown classes reported" true
    (rep.Dp_diff.dp_unknown <> []);
  Alcotest.(check bool) "degradation attached" true
    (Option.is_some rep.Dp_diff.dp_degradation);
  (* every class is accounted for: reused + recompiled + unknown *)
  Alcotest.(check int) "no class silently dropped" rep.Dp_diff.dp_classes
    (rep.Dp_diff.dp_reused + rep.Dp_diff.dp_recompiled
    + List.length rep.Dp_diff.dp_unknown)

(* --- Dp_bisim ---------------------------------------------------------- *)

let bisim_verdict net =
  let s = Bonsai_api.compress_exn net in
  Dp_bisim.check net s.Bonsai_api.results

let test_bisim_ring () =
  match bisim_verdict (Synthesis.ring_bgp ~n:8) with
  | Dp_bisim.Equivalent { classes; traces } ->
    Alcotest.(check int) "all classes" 8 classes;
    Alcotest.(check bool) "traced" true (traces > 0)
  | _ -> Alcotest.fail "ring must bisimulate"

let test_bisim_fattree () =
  match bisim_verdict (Synthesis.fattree_shortest_path (Generators.fattree ~k:4)) with
  | Dp_bisim.Equivalent { classes; _ } ->
    Alcotest.(check int) "all classes" 8 classes
  | _ -> Alcotest.fail "fattree must bisimulate"

(* Corrupt a compression result — disconnect the abstract destination —
   and demand a typed (router, prefix, path) witness. *)
let test_bisim_refutes_corruption () =
  let net = Synthesis.ring_bgp ~n:6 in
  let s = Bonsai_api.compress_exn net in
  let r =
    match
      List.find_opt
        (fun (r : Bonsai_api.ec_result) ->
          not (Abstraction.is_identity r.Bonsai_api.abstraction))
        s.Bonsai_api.results
    with
    | Some r -> r
    | None -> Alcotest.fail "expected a non-identity abstraction"
  in
  let t = r.Bonsai_api.abstraction in
  let ag = t.Abstraction.abs_graph in
  let cut =
    Graph.of_links ~n:(Graph.n_nodes ag)
      (List.filter
         (fun (u, v) ->
           u <> t.Abstraction.abs_dest && v <> t.Abstraction.abs_dest)
         (Graph.edges ag))
  in
  let corrupted =
    { r with Bonsai_api.abstraction = { t with Abstraction.abs_graph = cut } }
  in
  match Dp_bisim.check net [ corrupted ] with
  | Dp_bisim.Refuted rf ->
    Alcotest.(check bool) "witness names the class" true
      (Prefix.equal rf.Dp_bisim.rf_prefix r.Bonsai_api.ec.Ecs.ec_prefix);
    (match rf.Dp_bisim.rf_concrete with
    | Dataplane.Delivered (hd :: _) ->
      Alcotest.(check int) "concrete witness starts at the router" hd
        rf.Dp_bisim.rf_router
    | _ -> Alcotest.fail "concrete witness should deliver");
    (* the refutation renders with router names *)
    let msg = Dp_bisim.refutation_string net t rf in
    Alcotest.(check bool) "witness mentions the prefix" true
      (let p = Prefix.to_string rf.Dp_bisim.rf_prefix in
       let rec contains i =
         i + String.length p <= String.length msg
         && (String.sub msg i (String.length p) = p || contains (i + 1))
       in
       contains 0)
  | Dp_bisim.Equivalent _ -> Alcotest.fail "corruption not detected"
  | Dp_bisim.Incomplete _ -> Alcotest.fail "check did not finish"

let test_bisim_budget_incomplete () =
  let net = Synthesis.ring_bgp ~n:6 in
  let s = Bonsai_api.compress_exn net in
  let budget = Budget.create ~max_ticks:1 () in
  match Dp_bisim.check ~budget net s.Bonsai_api.results with
  | Dp_bisim.Incomplete { unknown; _ } ->
    Alcotest.(check bool) "unchecked classes reported" true (unknown <> [])
  | Dp_bisim.Equivalent _ -> Alcotest.fail "1-tick budget cannot finish"
  | Dp_bisim.Refuted _ -> Alcotest.fail "nothing to refute"

(* --- fuzz: compression results bisimulate at the data plane ------------ *)

let prop_bisim mk_net name =
  QCheck.Test.make ~count:fuzz_count ~name
    QCheck.(int_range 0 100000)
    (fun seed ->
      let net = mk_net seed in
      match bisim_verdict net with
      | Dp_bisim.Equivalent _ -> true
      | Dp_bisim.Refuted rf ->
        QCheck.Test.fail_reportf "refuted: router %d, prefix %s"
          rf.Dp_bisim.rf_router
          (Prefix.to_string rf.Dp_bisim.rf_prefix)
      | Dp_bisim.Incomplete _ ->
        QCheck.Test.fail_reportf "incomplete without a budget")

let prop_bisim_ring =
  prop_bisim
    (fun seed -> Synthesis.ring_bgp ~n:(4 + (seed mod 5)))
    "concrete ≡ abstract data plane (ring)"

let prop_bisim_fattree =
  prop_bisim
    (fun _ -> Synthesis.fattree_shortest_path (Generators.fattree ~k:4))
    "concrete ≡ abstract data plane (fattree)"

let prop_bisim_multi =
  prop_bisim
    (fun seed -> Synthesis.random_multi_network ~n:8 ~seed)
    "concrete ≡ abstract data plane (random multi-protocol)"

(* fuzz: on a network that runs BGP alone, the BGP SRP forwards exactly
   as the multi-protocol one — what lets Compile.model pick the cheaper
   BGP SRP for such networks. *)
let prop_bgp_only_model =
  QCheck.Test.make ~count:fuzz_count
    ~name:"bgp-only networks: bgp and multi SRPs give equal class FIBs"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let net = Synthesis.random_network ~n:(4 + (seed mod 7)) ~seed in
      (match Compile.model net with
      | Compile.Model Compile.Bgp -> ()
      | Compile.Model Compile.Multi ->
        QCheck.Test.fail_reportf "random_network is not BGP-only");
      List.for_all
        (fun ec ->
          Dataplane.compile_ec Compile.Bgp net ec
          = Dataplane.compile_ec Compile.Multi net ec
          || QCheck.Test.fail_reportf "%a: class FIBs differ" Ecs.pp ec)
        (Ecs.compute net))

(* fuzz: verify answers what the data plane forwards. On ACL-free
   multi-protocol networks (random_multi_network configures no ACL), a
   source reaches a converged class iff every walk through that class's
   FIB delivers. *)
let prop_reachability_fib =
  QCheck.Test.make ~count:fuzz_count
    ~name:"reachability query = walking the class FIB (random multi)"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let net = Synthesis.random_multi_network ~n:(4 + (seed mod 7)) ~seed in
      let (Compile.Model m) = Compile.model net in
      let n = Graph.n_nodes net.Device.graph in
      List.for_all
        (fun (ec : Ecs.ec) ->
          match Dataplane.compile_ec m net ec with
          | `Anycast | `Unsolved -> true
          | `Compiled cf ->
            let hops = Array.make n [] in
            List.iter
              (fun (u, (e : Dataplane.entry)) ->
                hops.(u) <- e.Dataplane.e_next_hops)
              cf.Dataplane.cf_entries;
            let lookup u = hops.(u) in
            List.for_all
              (fun src ->
                let walks =
                  Dataplane.walk ~all:true ~lookup
                    ~dest:(Some cf.Dataplane.cf_origin) src
                in
                let delivered =
                  List.for_all
                    (function Dataplane.Delivered _ -> true | _ -> false)
                    walks
                in
                Reachability.concrete_query net ~src ~ec = delivered
                || QCheck.Test.fail_reportf "%a from %d: query %b, FIB %b"
                     Ecs.pp ec src (not delivered) delivered)
              (List.init n Fun.id))
        (Ecs.compute net))

(* fuzz: a corrupted abstraction is refuted on random rings *)
let prop_corruption_refuted =
  QCheck.Test.make ~count:fuzz_count ~name:"corrupted abstraction refuted"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let net = Synthesis.ring_bgp ~n:(5 + (seed mod 4)) in
      let s = Bonsai_api.compress_exn net in
      match
        List.find_opt
          (fun (r : Bonsai_api.ec_result) ->
            not (Abstraction.is_identity r.Bonsai_api.abstraction))
          s.Bonsai_api.results
      with
      | None -> QCheck.assume_fail ()
      | Some r -> (
        let t = r.Bonsai_api.abstraction in
        let cut =
          Graph.of_links
            ~n:(Graph.n_nodes t.Abstraction.abs_graph)
            (List.filter
               (fun (u, v) ->
                 u <> t.Abstraction.abs_dest && v <> t.Abstraction.abs_dest)
               (Graph.edges t.Abstraction.abs_graph))
        in
        let corrupted =
          {
            r with
            Bonsai_api.abstraction = { t with Abstraction.abs_graph = cut };
          }
        in
        match Dp_bisim.check net [ corrupted ] with
        | Dp_bisim.Refuted _ -> true
        | _ -> false))

(* --- compiled transfers: the interpreting oracle agrees ----------------- *)

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
  let space = p_of "10.0.0.0/8" in
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

let random_bgp_attr rng ~n =
  let comms = List.filter (fun _ -> Random.State.bool rng) [ 1; 2; 3 ] in
  {
    Bgp.lp = [| 50; 100; 200 |].(Random.State.int rng 3);
    med = Random.State.int rng 4;
    comms;
    path = List.init (Random.State.int rng 4) (fun _ -> Random.State.int rng n);
  }

let random_multi_attr rng ~n =
  let ospf =
    if Random.State.bool rng then
      Some { Ospf.cost = Random.State.int rng 10; inter_area = Random.State.bool rng }
    else None
  in
  let bgp =
    if Random.State.bool rng then
      Some
        { Multi.battr = random_bgp_attr rng ~n; via_ibgp = Random.State.bool rng }
    else None
  in
  { Multi.static_ = Random.State.bool rng || (ospf = None && bgp = None); ospf; bgp }

(* Both transfers on every directed edge, for [None] and for random
   attributes; the first disagreement is reported. *)
let agree ~what ~equal (compiled : 'a Srp.t) (interp : 'a Srp.t) attrs =
  let mismatch = ref None in
  Graph.iter_edges compiled.Srp.graph (fun u v ->
      List.iter
        (fun a ->
          let c = compiled.Srp.trans u v a and i = interp.Srp.trans u v a in
          if !mismatch = None && not (Option.equal equal c i) then
            mismatch :=
              Some
                (Format.asprintf "%s: edge (%d,%d) on %a: compiled %a, interpreted %a"
                   what u v (Srp.pp_label compiled) a (Srp.pp_label compiled) c
                   (Srp.pp_label compiled) i))
        (None :: attrs));
  !mismatch

(* The solver's fused sweep against the interpreting Solution checks on
   one labeling: the verdict equals [Solution.is_stable] and every node's
   forwarding edges equal [Solution.fwd]. *)
let sweep_agrees (srp : 'a Srp.t) labels =
  let stable, table = Solver.sweep srp labels in
  let derived = Solution.of_labels srp labels in
  Bool.equal stable (Solution.is_stable derived)
  && Array.for_all Fun.id
       (Array.mapi
          (fun u fwd -> List.equal ( = ) fwd (Solution.fwd derived u))
          table)

let solved_agrees (srp : 'a Srp.t) ~seed =
  match Solver.solve ~seed srp with
  | Ok (sol, _) ->
    let derived = Solution.of_labels srp sol.Solution.labels in
    Solution.is_stable derived
    && List.for_all
         (fun u -> List.equal ( = ) (Solution.fwd sol u) (Solution.fwd derived u))
         (List.init (Graph.n_nodes srp.Srp.graph) Fun.id)
  | Error _ -> true

(* A labeling with a few entries moved: set to [None] or to another
   node's label, so the sweep also meets unstable labelings. *)
let perturbed rng (labels : 'a option array) =
  let l = Array.copy labels in
  let n = Array.length l in
  for _ = 1 to 1 + Random.State.int rng 3 do
    let u = Random.State.int rng n in
    l.(u) <- (if Random.State.bool rng then None else l.(Random.State.int rng n))
  done;
  l

let check_class ~what ~equal ~random_attr rng compiled interp =
  let n = Graph.n_nodes compiled.Srp.graph in
  let attrs = List.init 6 (fun _ -> Some (random_attr rng ~n)) in
  match agree ~what ~equal compiled interp attrs with
  | Some m -> Error m
  | None -> (
    match (Solver.solve compiled, Solver.solve interp) with
    | Ok (s, st), Ok (s', st') ->
      if not (Solution.equal_labels s s') then
        Error (what ^ ": solutions differ")
      else if
        st.Solver.steps <> st'.Solver.steps
        || st.Solver.updates <> st'.Solver.updates
      then Error (what ^ ": solver work differs")
      else if
        not
          (solved_agrees compiled ~seed:0
          && solved_agrees compiled ~seed:(1 + Random.State.int rng 1000))
      then Error (what ^ ": fused forwarding table differs from Solution.fwd")
      else if
        not
          (List.for_all
             (fun _ -> sweep_agrees compiled (perturbed rng s.Solution.labels))
             [ 1; 2; 3 ])
      then Error (what ^ ": fused stability verdict differs from is_stable")
      else Ok ()
    | Error _, Error _ -> Ok ()
    | _ -> Error (what ^ ": one side diverged"))

let prop_compiled_transfers =
  QCheck.Test.make ~count:fuzz_count
    ~name:"compiled transfers = interpreted (bgp and multi)"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let net = decorated_network ~n:(4 + (seed mod 7)) ~seed in
      let rng = Random.State.make [| seed; 0x0c0de |] in
      List.for_all
        (fun (ec : Ecs.ec) ->
          let dest = Ecs.single_origin ec and dest_prefix = ec.Ecs.ec_prefix in
          let results =
            [
              check_class ~what:"bgp" ~equal:Bgp.equal
                ~random_attr:random_bgp_attr rng
                (Compile.bgp_srp net ~dest ~dest_prefix)
                (Interpreted.bgp_srp net ~dest ~dest_prefix);
              check_class ~what:"multi" ~equal:Multi.equal
                ~random_attr:random_multi_attr rng
                (Compile.multi_srp net ~dest ~dest_prefix)
                (Interpreted.multi_srp net ~dest ~dest_prefix);
            ]
          in
          match List.find_map (function Error m -> Some m | Ok () -> None) results with
          | None -> true
          | Some m -> QCheck.Test.fail_reportf "%a: %s" Prefix.pp dest_prefix m)
        (List.filter Ecs.is_single_origin (Ecs.compute net)))

(* --- compiled signatures: the config-walking oracle agrees -------------- *)

(* The edge signature read straight from the routers' configurations:
   session lookups, ACL evaluation and route-map BDDs per edge, with no
   compiled per-network tables. [rm_bdd] must encode against the
   universe the compared signatures use, so BDD ids are comparable. *)
let reference_signature ~rm_bdd (net : Device.network) ~dest =
  let ospf_live = Compile.ospf_live net ~dest in
  let routers = net.Device.routers in
  fun recv sender ->
    let r = routers.(recv) and rs = routers.(sender) in
    let sig_acl = Acl.permits (Device.acl_for r sender) dest in
    let sig_ospf =
      if not ospf_live then None
      else
        match
          (Device.ospf_link_config r sender, Device.ospf_link_config rs recv)
        with
        | Some l, Some _ ->
          Some (l.Device.cost, r.Device.ospf_area, rs.Device.ospf_area)
        | _ -> None
    in
    let sig_static =
      List.exists (Int.equal sender) (Device.static_next_hops r ~dest)
    in
    match
      (Device.bgp_neighbor_config r sender, Device.bgp_neighbor_config rs recv)
    with
    | Some nb, Some _ ->
      {
        Compile.sig_import = Bdd.hash (rm_bdd nb.Device.import_rm);
        sig_export = Bdd.hash (rm_bdd nb.Device.export_rm);
        sig_ibgp = nb.Device.ibgp;
        sig_acl;
        sig_ospf;
        sig_static;
      }
    | _ ->
      {
        Compile.sig_import = -1;
        sig_export = -1;
        sig_ibgp = false;
        sig_acl;
        sig_ospf;
        sig_static;
      }

(* The compiled signature of every directed edge equals the oracle's, for
   every class, with the default route-map encoder and with a persistent
   [Sig_cache] one; the first disagreement is reported. *)
let signature_mismatch net (ec : Ecs.ec) ~universe ~rm_bdd =
  let dest = ec.Ecs.ec_prefix in
  let _, compiled = Compile.edge_signatures ~universe ?rm_bdd net ~dest in
  let reference_rm =
    match rm_bdd with
    | Some f -> f
    | None -> (
      function
      | None -> Policy_bdd.identity universe
      | Some rm -> Policy_bdd.encode_route_map universe rm ~dest)
  in
  let reference = reference_signature ~rm_bdd:reference_rm net ~dest in
  List.find_opt
    (fun (u, v) -> not (Compile.signature_equal (compiled u v) (reference u v)))
    (Graph.edges net.Device.graph)

let prop_compiled_signatures =
  QCheck.Test.make ~count:fuzz_count
    ~name:"compiled edge signatures = config-walking oracle"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let net = decorated_network ~n:(4 + (seed mod 7)) ~seed in
      let cache = Sig_cache.create net in
      List.for_all
        (fun (ec : Ecs.ec) ->
          let fresh = Policy_bdd.universe_of_network net in
          let cached = Sig_cache.universe cache in
          let rm = Sig_cache.rm_bdd cache ~dest:ec.Ecs.ec_prefix in
          match
            ( signature_mismatch net ec ~universe:fresh ~rm_bdd:None,
              signature_mismatch net ec ~universe:cached ~rm_bdd:(Some rm) )
          with
          | None, None -> true
          | Some (u, v), _ | None, Some (u, v) ->
            QCheck.Test.fail_reportf "%a: edge (%d,%d) signature differs"
              Prefix.pp ec.Ecs.ec_prefix u v)
        (Ecs.compute net))

(* --- signature ids: equal iff the oracle's records are equal ---------- *)

(* [decorated_network] with about one directed edge in six dropped, so
   some links are one-way; a static route along a dropped edge goes with
   it. *)
let one_way_network ~n ~seed =
  let net = decorated_network ~n ~seed in
  let g = net.Device.graph in
  let rng = Random.State.make [| seed; 0x1e57 |] in
  let b = Graph.Builder.create () in
  for v = 0 to n - 1 do
    ignore (Graph.Builder.add_node b (Graph.name g v))
  done;
  Graph.iter_edges g (fun u v ->
      if Random.State.int rng 6 > 0 then Graph.Builder.add_edge b u v);
  let graph = Graph.Builder.build b in
  let routers =
    Array.mapi
      (fun u (r : Device.router) ->
        {
          r with
          Device.static_routes =
            List.filter
              (fun (_, nh) -> Graph.has_edge graph u nh)
              r.Device.static_routes;
        })
      net.Device.routers
  in
  { Device.graph; routers }

let unconfigured =
  {
    Compile.sig_import = -1;
    sig_export = -1;
    sig_ibgp = false;
    sig_acl = true;
    sig_ospf = None;
    sig_static = false;
  }

(* One class: every pair of directed edges gets equal ids iff the oracle
   gives them equal records (ids below [bound], the no-edge id iff the
   unconfigured record), and the int-keyed [compress_ec_exn] partition
   equals the generic [Refine.find_partition ~signature] one. *)
let signature_id_mismatch net (ec : Ecs.ec) =
  let dest = ec.Ecs.ec_prefix in
  let universe = Policy_bdd.universe_of_network net in
  let t = Compile.signature_table ~universe net ~dest in
  let rm_bdd = function
    | None -> Policy_bdd.identity universe
    | Some rm -> Policy_bdd.encode_route_map universe rm ~dest
  in
  let reference = reference_signature ~rm_bdd net ~dest in
  let g = net.Device.graph in
  let edges =
    List.map
      (fun (u, v) -> (Graph.edge_index g u v, reference u v))
      (Graph.edges g)
  in
  let ids_agree =
    List.for_all
      (fun (e1, s1) ->
        let id1 = t.Compile.sid e1 in
        id1 >= 0 && id1 < t.Compile.bound
        && Bool.equal (Int.equal id1 t.Compile.no_edge)
             (Compile.signature_equal s1 unconfigured)
        && List.for_all
             (fun (e2, s2) ->
               Bool.equal
                 (Int.equal id1 (t.Compile.sid e2))
                 (Compile.signature_equal s1 s2))
             edges)
      edges
    && Compile.signature_equal
         (t.Compile.signature t.Compile.no_edge)
         unconfigured
  in
  if not ids_agree then Some "signature ids disagree with the oracle"
  else
    let r = Bonsai_api.compress_ec_exn net ec in
    let _, signature = Compile.edge_signatures net ~dest in
    let partition, _ =
      Refine.find_partition net ~dest:(Ecs.single_origin ec)
        ~live_self:(fun u v -> (signature u v).Compile.sig_static)
        ~signature ~prefs:(Bonsai_api.effective_prefs net ec)
    in
    if
      Array.for_all2 Int.equal
        (Union_split_find.canonical partition)
        r.Bonsai_api.abstraction.Abstraction.group_of
    then None
    else Some "int-keyed partition differs from find_partition ~signature"

let prop_signature_ids =
  QCheck.Test.make ~count:fuzz_count
    ~name:"signature ids = oracle; int-keyed partition"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let net = one_way_network ~n:(4 + (seed mod 7)) ~seed in
      List.for_all
        (fun (ec : Ecs.ec) ->
          match signature_id_mismatch net ec with
          | None -> true
          | Some m ->
            QCheck.Test.fail_reportf "%a: %s" Prefix.pp ec.Ecs.ec_prefix m)
        (List.filter Ecs.is_single_origin (Ecs.compute net)))

(* --- solver work: one post-drain sweep, no re-transfer after it -------- *)

(* Solve [srp] with every transfer logged. The solve's [transfers] must
   equal the log; the log must end with exactly one visit of every edge
   in [Graph.edges] order (the final sweep), preceded by one complete
   successor walk per activation; and building the class FIB from the
   solution must not transfer at all. *)
let rec split_at k l =
  if k = 0 then ([], l)
  else
    match l with
    | [] -> ([], [])
    | x :: rest ->
      let a, b = split_at (k - 1) rest in
      (x :: a, b)

let check_solver_work net (ec : Ecs.ec) model (srp : 'a Srp.t) =
  let g = srp.Srp.graph in
  let log = ref [] and count = ref 0 in
  let logged =
    {
      srp with
      Srp.trans =
        (fun u v a ->
          incr count;
          log := (u, v) :: !log;
          srp.Srp.trans u v a);
    }
  in
  let name = Prefix.to_string ec.Ecs.ec_prefix in
  match Solver.solve logged with
  | Error _ -> Alcotest.failf "%s must solve" name
  | Ok (sol, stats) ->
    Alcotest.(check int) (name ^ ": transfers counted") !count
      stats.Solver.transfers;
    let drain, sweep =
      split_at (!count - Graph.n_edges g) (List.rev !log)
    in
    Alcotest.(check (list (pair int int)))
      (name ^ ": the post-drain check visits each edge once")
      (Graph.edges g) sweep;
    let rec walks acts = function
      | [] -> acts
      | (u, _) :: _ as calls ->
        let succ = Array.to_list (Graph.succ g u) in
        let walk, rest = split_at (List.length succ) calls in
        Alcotest.(check (list int))
          (name ^ ": an activation walks every successor")
          succ (List.map snd walk);
        walks (acts + 1) rest
    in
    Alcotest.(check int) (name ^ ": one walk per activation")
      stats.Solver.steps (walks 0 drain);
    let before = !count in
    let cf = Dataplane.class_fib net ec sol in
    Alcotest.(check int) (name ^ ": the class FIB transfers nothing") before
      !count;
    (match Dataplane.compile_ec model net ec with
    | `Compiled cf' ->
      Alcotest.(check bool) (name ^ ": compile_ec builds that FIB") true
        (cf = cf')
    | `Anycast | `Unsolved -> Alcotest.failf "%s must compile" name)

let solver_work_on net ~classes =
  let (Compile.Model m) = Compile.model net in
  List.iter
    (fun (ec : Ecs.ec) ->
      let dest = Ecs.single_origin ec and dest_prefix = ec.Ecs.ec_prefix in
      check_solver_work net ec m (Compile.srp m net ~dest ~dest_prefix))
    (List.filteri
       (fun i _ -> i < classes)
       (List.filter Ecs.is_single_origin (Ecs.compute net)))

let test_solver_work_datacenter () =
  solver_work_on (Synthesis.datacenter ()).Synthesis.net ~classes:4

let test_solver_work_fattree () =
  solver_work_on
    (Synthesis.fattree_shortest_path (Generators.fattree ~k:8))
    ~classes:4

(* --- Dp_diff's reuse decision against a compile-everything reference -- *)

(* The FIB of the class announcing [prefix] in [net], by the differ's
   rules: no class or an anycast class has no entries, a diverging class
   ([None]) has no verdict. *)
let reference_entries model net prefix =
  match Ecs.of_prefix net prefix with
  | None -> Some []
  | Some ec -> (
    match Dataplane.compile_ec model net ec with
    | `Compiled cf -> Some cf.Dataplane.cf_entries
    | `Anycast -> Some []
    | `Unsolved -> None)

(* An entry and a change as text, routers and next hops by name: the two
   networks may number their routers differently. *)
let entry_string (net : Device.network) = function
  | None -> "-"
  | Some (e : Dataplane.entry) ->
    let names us =
      String.concat ","
        (List.sort String.compare (List.map (Graph.name net.Device.graph) us))
    in
    Printf.sprintf "%s/%s"
      (names e.Dataplane.e_next_hops)
      (names e.Dataplane.e_acl_dropped)

let change_string ~old_net ~new_net prefix router kind o n =
  Printf.sprintf "%s@%s %s %s -> %s" (Prefix.to_string prefix) router kind
    (entry_string old_net o) (entry_string new_net n)

(* Compile every single-origin class of the new network, and every class
   only the old one announces, on both sides; diff router by router,
   pairing routers by name. *)
let reference_diff model old_net new_net =
  let singles net =
    List.filter_map
      (fun (ec : Ecs.ec) ->
        match ec.Ecs.ec_origins with [ _ ] -> Some ec.Ecs.ec_prefix | _ -> None)
      (Ecs.compute net)
  in
  let gone p = Option.is_none (Ecs.of_prefix new_net p) in
  let prefixes = singles new_net @ List.filter gone (singles old_net) in
  let by_name (net : Device.network) =
    List.map (fun (u, e) -> (Graph.name net.Device.graph u, e))
  in
  let change = change_string ~old_net ~new_net in
  List.fold_left
    (fun (changes, unknown) p ->
      match
        ( reference_entries model old_net p,
          reference_entries model new_net p )
      with
      | Some olds, Some news ->
        let olds = by_name old_net olds and news = by_name new_net news in
        let routers =
          List.sort_uniq String.compare (List.map fst (olds @ news))
        in
        let row r =
          match (List.assoc_opt r olds, List.assoc_opt r news) with
          | Some o, None -> Some (change p r "removed" (Some o) None)
          | None, Some n -> Some (change p r "added" None (Some n))
          | Some o, Some n
            when not
                   (String.equal
                      (entry_string old_net (Some o))
                      (entry_string new_net (Some n))) ->
            Some (change p r "modified" (Some o) (Some n))
          | _ -> None
        in
        (List.filter_map row routers @ changes, unknown)
      | _ -> (changes, Prefix.to_string p :: unknown))
    ([], []) prefixes

(* One random edit: ACL edits, import maps that set a local preference
   (mostly a level the network already uses, so the signature cache stays
   compatible and the reuse decision runs), cleared maps, OSPF costs,
   statics, link churn and origination changes. *)
let random_dp_delta rng (net : Device.network) =
  let g = net.Device.graph in
  let name = Graph.name g in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let edges = Graph.edges g in
  let bgp_edges =
    List.filter
      (fun (u, v) -> Device.bgp_neighbor_config net.Device.routers.(u) v <> None)
      edges
  in
  let ospf_edges =
    List.filter
      (fun (u, v) -> Device.ospf_link_config net.Device.routers.(u) v <> None)
      edges
  in
  let class_prefixes = List.map (fun (ec : Ecs.ec) -> ec.Ecs.ec_prefix) (Ecs.compute net) in
  let lps = Array.to_list (Policy_bdd.universe_params net).Policy_bdd.up_lps in
  let set_lp lp : Route_map.t =
    [ { Route_map.verdict = Route_map.Permit; conds = [];
        actions = [ Route_map.Set_local_pref lp ] } ]
  in
  let on l f = if l = [] then [] else [ (fun () -> f (pick l)) ] in
  let candidates =
    on edges (fun (u, v) ->
        Delta.Acl_set
          {
            node = name u;
            nbr = name v;
            acl =
              pick
                [
                  None;
                  Some
                    [
                      { Acl.permit = false; prefix = pick class_prefixes };
                      { Acl.permit = true; prefix = Prefix.of_string "0.0.0.0/0" };
                    ];
                  Some [ { Acl.permit = false; prefix = Prefix.of_string "10.0.0.0/8" } ];
                ];
          })
    @ on bgp_edges (fun (u, v) ->
          Delta.Route_map_set
            {
              node = name u;
              nbr = name v;
              dir = Delta.Import;
              rm =
                (if Random.State.int rng 8 = 0 then Some (set_lp 300)
                 else Some (set_lp (pick lps)));
            })
    @ on bgp_edges (fun (u, v) ->
          Delta.Route_map_set
            {
              node = name u;
              nbr = name v;
              dir = pick [ Delta.Import; Delta.Export ];
              rm = pick [ None; Some Route_map.permit_all ];
            })
    @ on ospf_edges (fun (u, v) ->
          Delta.Ospf_cost
            { node = name u; nbr = name v; cost = 1 + Random.State.int rng 4 })
    @ on edges (fun (u, v) ->
          Delta.Static_set
            { node = name u; routes = [ (pick class_prefixes, name v) ] })
    @ on edges (fun (u, v) -> Delta.Link_down (name u, name v))
    @ [
        (fun () ->
          let u = Random.State.int rng (Graph.n_nodes g) in
          Delta.Originate_set
            { node = name u; prefixes = [ Synthesis.prefix_of_index (200 + u) ] });
      ]
  in
  (pick candidates) ()

(* The same network with every router under another node id: the node
   lines of its printed configuration rotated by [k] (0 < k < n). *)
let permute k (net : Device.network) =
  let lines = String.split_on_char '\n' (Config_text.print net) in
  let is_node l = String.starts_with ~prefix:"  node " l in
  let nodes = List.filter is_node lines in
  let rotated =
    List.filteri (fun i _ -> i >= k) nodes @ List.filteri (fun i _ -> i < k) nodes
  in
  let rest = ref rotated in
  let next l =
    match !rest with
    | x :: xs when is_node l ->
      rest := xs;
      x
    | _ -> l
  in
  match Config_text.parse (String.concat "\n" (List.map next lines)) with
  | Ok net' -> net'
  | Error m -> failwith ("permute: " ^ m)

(* Three modes by seed: the edit alone; the edit with the new network's
   routers renumbered; the edit plus the removal of one router. The
   differ must pair routers by name in all three. *)
let prop_diff_reference =
  QCheck.Test.make ~count:fuzz_count
    ~name:"dataplane-diff = compile-everything reference"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 5 + (seed mod 5) in
      let base =
        if seed mod 2 = 0 then Synthesis.random_network ~n ~seed
        else Synthesis.random_multi_network ~n ~seed
      in
      (* a few more classes, so most of them sit away from the edit *)
      let old_net =
        Delta.apply base
          (List.init 3 (fun i ->
               let u = 1 + Random.State.int rng (n - 1) in
               Delta.Originate_set
                 {
                   node = Graph.name base.Device.graph u;
                   prefixes = [ Synthesis.prefix_of_index (100 + (10 * i) + u) ];
                 }))
      in
      let deltas =
        List.init (1 + Random.State.int rng 2) (fun _ ->
            random_dp_delta rng old_net)
      in
      let mode = seed / 2 mod 3 in
      let renumber net =
        match mode with
        | 1 -> permute (1 + Random.State.int rng (n - 1)) net
        | 2 ->
          let u = Random.State.int rng n in
          Delta.apply net [ Delta.Node_remove (Graph.name net.Device.graph u) ]
        | _ -> net
      in
      let valid net = Result.is_ok (Device.validate net) in
      let new_net =
        match Delta.apply old_net deltas with
        | exception Invalid_argument _ -> None
        | net when not (valid net) ->
          (* e.g. a static route along a link another edit took down *)
          None
        | net -> (
          match renumber net with
          | exception Invalid_argument _ -> None
          | net -> if valid net then Some net else None)
      in
      match new_net with
      | None -> QCheck.assume_fail ()
      | Some new_net ->
        (* the reference compiles both sides under one model, [Multi]
           unless both networks run BGP alone *)
        let (Compile.Model model) =
          match (Compile.model old_net, Compile.model new_net) with
          | Compile.Model Compile.Bgp, Compile.Model Compile.Bgp ->
            Compile.Model Compile.Bgp
          | _ -> Compile.Model Compile.Multi
        in
        let deltas = Delta.diff old_net new_net in
        let rep =
          match Dp_diff.run ~old_net ~new_net deltas with
          | Ok rep -> rep
          | Error e ->
            QCheck.Test.fail_reportf "dp_diff failed: %a" Bonsai_error.pp e
        in
        let got =
          List.map
            (fun (c : Dp_diff.change) ->
              let net =
                match c.Dp_diff.c_kind with
                | Dp_diff.Removed -> old_net
                | Dp_diff.Added | Dp_diff.Modified -> new_net
              in
              change_string ~old_net ~new_net c.Dp_diff.c_prefix
                (Graph.name net.Device.graph c.Dp_diff.c_router)
                (Dp_diff.kind_string c.Dp_diff.c_kind)
                c.Dp_diff.c_old c.Dp_diff.c_new)
            rep.Dp_diff.dp_changes
          |> List.sort String.compare
        and got_unknown =
          List.map Prefix.to_string rep.Dp_diff.dp_unknown
          |> List.sort String.compare
        in
        let want, want_unknown = reference_diff model old_net new_net in
        let want = List.sort String.compare want
        and want_unknown = List.sort String.compare want_unknown in
        if got <> want || got_unknown <> want_unknown then
          QCheck.Test.fail_reportf
            "mode %d, deltas [%s] (reused %d): changes [%s], reference [%s]; \
             unknown [%s], reference [%s]"
            mode
            (String.concat "; " (List.map Delta.to_string deltas))
            rep.Dp_diff.dp_reused (String.concat "; " got)
            (String.concat "; " want)
            (String.concat ", " got_unknown)
            (String.concat ", " want_unknown)
        else true)

(* A warm network follows a serve [diff] to a renumbered configuration
   (node lines rotated, plus an edit): afterwards its [dataplane-diff]
   and [compress] answers, one class's roles included, are byte-equal to
   a cold engine's that loaded the renumbered network directly. The
   concrete solver breaks ties by node id, so the warm state has to take
   the new numbering, not replay the deltas onto the old one. *)
let prop_warm_renumbered =
  QCheck.Test.make ~count:fuzz_count
    ~name:"warm diff to a renumbering = cold load"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 5 + (seed mod 5) in
      let base =
        if seed mod 2 = 0 then Synthesis.random_network ~n ~seed
        else Synthesis.random_multi_network ~n ~seed
      in
      let edited net =
        match Delta.apply net [ random_dp_delta rng net ] with
        | exception Invalid_argument _ -> None
        | net -> if Result.is_ok (Device.validate net) then Some net else None
      in
      match edited base with
      | None -> QCheck.assume_fail ()
      | Some next -> (
        let renumbered = permute (1 + Random.State.int rng (n - 1)) next in
        match edited renumbered with
        | None -> QCheck.assume_fail ()
        | Some probe ->
          let engine first =
            let resolve = function
              | "net" -> first
              | "to" -> renumbered
              | _ -> probe
            in
            Serve_engine.create ~resolve ()
          in
          let ask eng line =
            fst (Serve_engine.handle_line eng ~queue_depth:0 line)
          in
          let warm = engine base and cold = engine renumbered in
          ignore (ask warm {|{"op":"diff","network":"net","to":"to"}|});
          let ec =
            match Ecs.compute renumbered with
            | ec :: _ -> Prefix.to_string ec.Ecs.ec_prefix
            | [] -> "0.0.0.0/0"
          in
          let questions =
            [
              {|{"op":"dataplane-diff","network":"net","to":"probe"}|};
              {|{"op":"compress","network":"net"}|};
              Printf.sprintf {|{"op":"compress","network":"net","ec":"%s"}|} ec;
            ]
          in
          List.for_all
            (fun q ->
              let w = ask warm q and c = ask cold q in
              String.equal w c
              || QCheck.Test.fail_reportf "%s@.warm: %s@.cold: %s" q w c)
            questions))

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "dataplane"
    [
      ( "fib",
        [
          Alcotest.test_case "lpm overlap" `Quick test_lpm_overlap;
          Alcotest.test_case "static ecmp" `Quick test_static_ecmp;
          Alcotest.test_case "acl first-match" `Quick test_acl_first_match;
          Alcotest.test_case "acl-free untouched" `Quick
            test_aclfree_untouched;
          Alcotest.test_case "dangling next hop" `Quick
            test_dangling_next_hop;
        ] );
      ( "diff",
        [
          Alcotest.test_case "identical" `Quick test_diff_identical;
          Alcotest.test_case "acl change" `Quick test_diff_acl_change;
          Alcotest.test_case "budget unknown" `Quick
            test_diff_budget_unknown;
        ] );
      ( "bisim",
        [
          Alcotest.test_case "ring" `Quick test_bisim_ring;
          Alcotest.test_case "fattree" `Quick test_bisim_fattree;
          Alcotest.test_case "refutes corruption" `Quick
            test_bisim_refutes_corruption;
          Alcotest.test_case "budget incomplete" `Quick
            test_bisim_budget_incomplete;
        ] );
      ( "work",
        [
          Alcotest.test_case "datacenter" `Quick test_solver_work_datacenter;
          Alcotest.test_case "fattree:8" `Quick test_solver_work_fattree;
        ] );
      qsuite "fuzz"
        [
          prop_bisim_ring;
          prop_bisim_fattree;
          prop_bisim_multi;
          prop_corruption_refuted;
          prop_compiled_transfers;
          prop_compiled_signatures;
          prop_signature_ids;
          prop_diff_reference;
          prop_warm_renumbered;
          prop_bgp_only_model;
          prop_reachability_fib;
        ];
    ]
