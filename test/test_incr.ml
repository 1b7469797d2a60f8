(* Tests for the incremental compression engine (lib/incr): the delta
   model (diff/apply inverses), the policy-signature cache, the seeded
   refinement (snapshot restore and multi-way split in Union_split_find),
   and the headline property — an incrementally maintained abstraction is
   equal to a from-scratch compression after every delta.

   The QCheck iteration count defaults to a small CI-friendly number and
   scales with FUZZ_COUNT (e.g. `FUZZ_COUNT=500 dune exec
   test/test_incr.exe`). *)

let fuzz_count =
  match Option.bind (Sys.getenv_opt "FUZZ_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 40

(* --- Union_split_find: snapshot restore and multi-way split ----------- *)

let test_of_class_array () =
  let p = Union_split_find.create 6 in
  ignore (Union_split_find.split p [ 0; 2 ]);
  ignore (Union_split_find.split p [ 5 ]);
  let q = Union_split_find.of_class_array (Union_split_find.to_class_array p) in
  Alcotest.(check bool) "restored equal" true (Union_split_find.equal p q);
  let r = Union_split_find.of_class_array (Union_split_find.canonical p) in
  Alcotest.(check bool) "canonical restored equal" true
    (Union_split_find.equal p r);
  Alcotest.(check int) "num_classes" 3 (Union_split_find.num_classes q)

let test_of_class_array_empty () =
  let p = Union_split_find.of_class_array [||] in
  Alcotest.(check int) "empty length" 0 (Union_split_find.length p);
  Alcotest.(check int) "empty classes" 0 (Union_split_find.num_classes p)

let test_split_off () =
  let p = Union_split_find.create 6 in
  let c = Union_split_find.find p 0 in
  let fresh = Union_split_find.split_off p ~cls:c [ [ 0; 1 ]; [ 2 ] ] in
  Alcotest.(check int) "two fresh classes" 2 (List.length fresh);
  Alcotest.(check int) "largest part keeps the id" c (Union_split_find.find p 4);
  Alcotest.(check (list int)) "members sorted" [ 0; 1 ]
    (Union_split_find.members p (Union_split_find.find p 1));
  let seen = ref [] in
  Union_split_find.iter_members p c (fun x -> seen := x :: !seen);
  Alcotest.(check (list int)) "iter_members" [ 3; 4; 5 ]
    (List.sort Int.compare !seen);
  Alcotest.(check (list int)) "whole class is a no-op" []
    (Union_split_find.split_off p ~cls:c [ [ 5; 3; 4 ] ])

(* --- Bdd.stats -------------------------------------------------------- *)

let test_bdd_stats () =
  let m = Bdd.man () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 in
  let s0 = Bdd.stats m in
  let x = Bdd.and_ m a b in
  let y = Bdd.and_ m a b in
  Alcotest.(check bool) "hash-consed" true (x == y);
  let s1 = Bdd.stats m in
  Alcotest.(check bool) "apply memo hit counted" true
    (s1.Bdd.apply_hits > s0.Bdd.apply_hits);
  Alcotest.(check bool) "node table grew" true (s1.Bdd.nodes > 0)

(* --- Delta: diff/apply ------------------------------------------------ *)

let fattree4 () = Synthesis.fattree_shortest_path (Generators.fattree ~k:4)

let test_diff_identity () =
  let net = fattree4 () in
  Alcotest.(check int) "diff net net = []" 0 (List.length (Delta.diff net net));
  let ring = Synthesis.ring_bgp ~n:6 in
  Alcotest.(check int) "diff ring ring = []" 0
    (List.length (Delta.diff ring ring))

let test_diff_apply_roundtrip () =
  let a = Synthesis.ring_bgp ~n:6 in
  let b = Synthesis.random_network ~n:9 ~seed:7 in
  let ds = Delta.diff a b in
  Alcotest.(check bool) "nonempty diff" true (ds <> []);
  let b' = Delta.apply a ds in
  Alcotest.(check int) "apply(a, diff a b) ~ b" 0
    (List.length (Delta.diff b' b));
  (* and the other way round *)
  let ds' = Delta.diff b a in
  let a' = Delta.apply b ds' in
  Alcotest.(check int) "apply(b, diff b a) ~ a" 0
    (List.length (Delta.diff a' a))

let test_apply_link_down_purges () =
  let net = Synthesis.ring_bgp ~n:5 in
  let g = net.Device.graph in
  let n0 = Graph.name g 0 and n1 = Graph.name g 1 in
  let net' = Delta.apply net [ Delta.Link_down (n0, n1) ] in
  (match Device.validate net' with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invalid after link down: %s" m);
  let g' = net'.Device.graph in
  Alcotest.(check bool) "edge gone" false (Graph.has_edge g' 0 1);
  Alcotest.(check bool) "bgp session gone" true
    (Device.bgp_neighbor_config net'.Device.routers.(0) 1 = None)

let test_apply_invalid () =
  let net = Synthesis.ring_bgp ~n:5 in
  Alcotest.check_raises "unknown router"
    (Invalid_argument "Delta: unknown router \"nope\"") (fun () ->
      ignore (Delta.apply net [ Delta.Node_remove "nope" ]))

(* --- Sig_cache -------------------------------------------------------- *)

let test_sig_cache_hits () =
  let net = fattree4 () in
  let cache = Sig_cache.create net in
  let ec = List.hd (Ecs.compute net) in
  let dest = ec.Ecs.ec_prefix in
  let rm = net.Device.routers.(0).Device.bgp_neighbors |> List.hd |> snd in
  let b1 = Sig_cache.rm_bdd cache ~dest rm.Device.import_rm in
  let b2 = Sig_cache.rm_bdd cache ~dest rm.Device.import_rm in
  Alcotest.(check bool) "same bdd" true (b1 == b2);
  let hits, misses = Sig_cache.stats cache in
  Alcotest.(check int) "one hit" 1 hits;
  Alcotest.(check int) "one miss" 1 misses;
  Alcotest.(check bool) "compatible with itself" true
    (Sig_cache.compatible cache net)

(* --- incremental ≡ scratch ------------------------------------------- *)

let canon_groups (a : Abstraction.t) =
  let m = Hashtbl.create 16 in
  Array.map
    (fun g ->
      match Hashtbl.find_opt m g with
      | Some i -> i
      | None ->
        let i = Hashtbl.length m in
        Hashtbl.add m g i;
        i)
    a.Abstraction.group_of

let results_equal (got : Bonsai_api.ec_result list)
    (want : Bonsai_api.ec_result list) =
  List.length got = List.length want
  && List.for_all2
       (fun (g : Bonsai_api.ec_result) (w : Bonsai_api.ec_result) ->
         Prefix.equal g.ec.Ecs.ec_prefix w.ec.Ecs.ec_prefix
         && canon_groups g.abstraction = canon_groups w.abstraction
         && Array.for_all2 ( = )
              (Array.map
                 (fun u -> g.abstraction.Abstraction.copies.(g.abstraction.Abstraction.group_of.(u)))
                 (Array.init (Array.length g.abstraction.Abstraction.group_of) Fun.id))
              (Array.map
                 (fun u -> w.abstraction.Abstraction.copies.(w.abstraction.Abstraction.group_of.(u)))
                 (Array.init (Array.length w.abstraction.Abstraction.group_of) Fun.id)))
       got want

(* The reference compresses every class on its own, so a class that
   takes an earlier class's row is checked against its own compression. *)
let check_against_scratch st =
  let net = Incr.network st in
  let universe = Policy_bdd.universe_of_network net in
  let scratch =
    List.filter Ecs.is_single_origin (Ecs.compute net)
    |> List.map (Bonsai_api.compress_ec_exn ~universe net)
  in
  let got = (Incr.summary st).Bonsai_api.results in
  if not (results_equal got scratch) then
    QCheck.Test.fail_reportf
      "incremental result differs from scratch (%d vs %d classes)"
      (List.length got) (List.length scratch)
  else true

(* Every class is reused (no kernel run), seeded or scratch. *)
let check_counts (r : Incr.report) =
  r.Incr.r_reused + r.Incr.r_seeded + r.Incr.r_scratch = r.Incr.r_ecs
  || QCheck.Test.fail_reportf "%d reused + %d seeded + %d scratch <> %d classes"
       r.Incr.r_reused r.Incr.r_seeded r.Incr.r_scratch r.Incr.r_ecs

(* A random valid delta for the current network. Covers the engine's
   paths: link churn (seeded), route-map edits that change the attribute
   universe (full rebuild), statics and redistributions (non-seedable →
   scratch), origination changes (added/dropped classes, and classes
   that share a key), node addition (full rebuild). *)
let lp_bump : Route_map.t =
  [ { Route_map.verdict = Route_map.Permit; conds = []; actions = [ Route_map.Set_local_pref 200 ] } ]

let random_delta rng (net : Device.network) =
  let g = net.Device.graph in
  let n = Graph.n_nodes g in
  let name i = Graph.name g i in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let random_node () = Random.State.int rng n in
  let links =
    Graph.edges g
    |> List.filter_map (fun (u, v) -> if u < v then Some (u, v) else None)
  in
  let non_links =
    let out = ref [] in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if not (Graph.has_edge g u v) then out := (u, v) :: !out
      done
    done;
    !out
  in
  let bgp_edges =
    List.filter
      (fun (u, v) ->
        Device.bgp_neighbor_config net.Device.routers.(u) v <> None)
      (Graph.edges g)
  in
  let candidates =
    (if links <> [] then
       [
         (fun () ->
           let u, v = pick links in
           Delta.Link_down (name u, name v));
         (fun () ->
           let u, v = pick links in
           Delta.Ospf_link_set
             {
               node = name u;
               nbr = name v;
               link = Some { Device.cost = 1 + Random.State.int rng 4; area = 0 };
             });
       ]
     else [])
    @ (if non_links <> [] then
         [
           (fun () ->
             let u, v = pick non_links in
             Delta.Link_up (name u, name v));
         ]
       else [])
    @ (if bgp_edges <> [] then
         [
           (fun () ->
             let u, v = pick bgp_edges in
             Delta.Route_map_set
               {
                 node = name u;
                 nbr = name v;
                 dir = Delta.Import;
                 rm =
                   pick [ None; Some lp_bump; Some Route_map.permit_all ];
               });
           (fun () ->
             let u, v = pick bgp_edges in
             Delta.Bgp_neighbor_set { node = name u; nbr = name v; config = None });
           (fun () ->
             let u, v = pick bgp_edges in
             Delta.Acl_set
               {
                 node = name u;
                 nbr = name v;
                 acl =
                   (if Random.State.bool rng then None
                    else
                      Some
                        [ { Acl.permit = false; prefix = Prefix.of_string "10.0.0.0/8" } ]);
               });
         ]
       else [])
    @ [
        (fun () ->
          let u = random_node () in
          let nbrs = Graph.succ g u in
          if Array.length nbrs = 0 then
            Delta.Static_set { node = name u; routes = [] }
          else
            Delta.Static_set
              {
                node = name u;
                routes =
                  [
                    ( Prefix.of_string "10.0.0.0/8",
                      name nbrs.(Random.State.int rng (Array.length nbrs)) );
                  ];
              });
        (fun () ->
          let u = random_node () in
          Delta.Originate_set
            {
              node = name u;
              prefixes = [ Synthesis.prefix_of_index (200 + u) ];
            });
        (fun () ->
          (* several prefixes of one origin: their classes share a key
             unless a policy singles one out *)
          let u = random_node () in
          Delta.Originate_set
            {
              node = name u;
              prefixes =
                List.init
                  (2 + Random.State.int rng 2)
                  (fun i -> Synthesis.prefix_of_index (300 + (4 * u) + i));
            });
        (fun () ->
          Delta.Node_add (Printf.sprintf "new%d" (Random.State.int rng 10000)));
        (fun () ->
          let u = random_node () in
          Delta.Ospf_area_set { node = name u; area = Random.State.int rng 3 });
      ]
  in
  (pick candidates) ()

let exercise_net mk_net =
  QCheck.Test.make ~count:fuzz_count
    ~name:"incremental ≡ scratch under random deltas"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let net = mk_net seed in
      match Incr.init net with
      | Error e ->
        QCheck.Test.fail_reportf "init failed: %s"
          (Format.asprintf "%a" Bonsai_error.pp e)
      | Ok st ->
        let steps = 1 + Random.State.int rng 3 in
        let ok = ref (check_against_scratch st) in
        for _ = 1 to steps do
          if !ok then begin
            let d = random_delta rng (Incr.network st) in
            match Incr.recompress st [ d ] with
            | Ok r -> ok := check_counts r && check_against_scratch st
            | Error (Bonsai_error.Compile_error _) ->
              (* a delta can invalidate the network (e.g. node add leaves
                 it disconnected from configs' perspective); skipping it
                 keeps the state consistent, which is what we assert *)
              ok := check_against_scratch st
            | Error e ->
              QCheck.Test.fail_reportf "recompress failed: %s"
                (Format.asprintf "%a" Bonsai_error.pp e)
          end
        done;
        !ok)

let prop_ring = exercise_net (fun seed -> Synthesis.ring_bgp ~n:(4 + (seed mod 5)))
let prop_fattree = exercise_net (fun _ -> fattree4 ())

let prop_random =
  exercise_net (fun seed -> Synthesis.random_network ~n:8 ~seed)

let prop_multi =
  exercise_net (fun seed -> Synthesis.random_multi_network ~n:8 ~seed)

let prop_shared =
  exercise_net (fun seed ->
      Networks.shared_origin_network ~n:(4 + (seed mod 7)) ~seed)

(* --- Delta against the list-based reference ------------------------- *)

(* [net] renumbered: node [i] becomes [perm.(i)], every neighbor list in
   its old order (so no longer ascending). *)
let permute (net : Device.network) perm =
  let g = net.Device.graph in
  let n = Graph.n_nodes g in
  let inv = Array.make n 0 in
  Array.iteri (fun i j -> inv.(j) <- i) perm;
  let b = Graph.Builder.create () in
  Array.iter (fun i -> ignore (Graph.Builder.add_node b (Graph.name g i))) inv;
  Graph.iter_edges g (fun u v -> Graph.Builder.add_edge b perm.(u) perm.(v));
  let nbr l = List.map (fun (v, x) -> (perm.(v), x)) l in
  let router i =
    let r = net.Device.routers.(i) in
    {
      r with
      Device.bgp_neighbors = nbr r.Device.bgp_neighbors;
      ospf_links = nbr r.Device.ospf_links;
      acl_out = nbr r.Device.acl_out;
      static_routes = List.map (fun (p, v) -> (p, perm.(v))) r.Device.static_routes;
    }
  in
  { Device.graph = Graph.Builder.build b; routers = Array.map router inv }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Random delta lists over [net], valid and invalid: names are sometimes
   ones no router has, links sometimes absent or duplicated, and
   references to new names sometimes are never backed by a [Node_add]. *)
let random_deltas rng (net : Device.network) =
  let g = net.Device.graph in
  let n = Graph.n_nodes g in
  let int k = Random.State.int rng k in
  let fresh () = Printf.sprintf "new%d" (int 3) in
  (* A quarter of the lists only add routers and set per-neighbor state
     on two routers, towards new names half the time: several unresolved
     references in one router, in different lists. *)
  let focus = int 4 = 0 in
  let node () =
    if focus then Graph.name g (int (min 2 n))
    else if int 8 = 0 then fresh ()
    else Graph.name g (int n)
  in
  let nbr () = if focus && int 2 = 0 then fresh () else node () in
  let edges = Array.of_list (Graph.edges g) in
  let link () =
    if focus || Array.length edges = 0 || int 4 = 0 then (node (), nbr ())
    else
      let u, v = edges.(int (Array.length edges)) in
      (Graph.name g u, Graph.name g v)
  in
  let rm () = [| None; Some lp_bump; Some Route_map.permit_all |].(int 3) in
  let prefix () = Synthesis.prefix_of_index (int 4) in
  let one () =
    match if focus then [| 3; 6; 9; 10; 11 |].(int 5) else int 15 with
    | 0 | 1 ->
      let a, b = link () in
      Delta.Link_down (a, b)
    | 2 -> Delta.Link_up (node (), node ())
    | 3 -> Delta.Node_add (if int 4 = 0 then node () else fresh ())
    | 4 -> Delta.Node_remove (node ())
    | 5 ->
      let node, nbr = link () in
      Delta.Ospf_cost { node; nbr; cost = 1 + int 5 }
    | 6 ->
      let node, nbr = link () in
      let link =
        if int 3 = 0 then None else Some { Device.cost = 1 + int 5; area = int 2 }
      in
      Delta.Ospf_link_set { node; nbr; link }
    | 7 -> Delta.Ospf_area_set { node = node (); area = int 3 }
    | 8 ->
      let node, nbr = link () in
      Delta.Route_map_set
        { node; nbr; dir = (if int 2 = 0 then Delta.Import else Delta.Export); rm = rm () }
    | 9 ->
      let node, nbr = link () in
      let config =
        if int 3 = 0 then None
        else
          Some
            { Device.import_rm = rm (); export_rm = rm (); ibgp = int 4 = 0;
              rel = Device.Rel_unknown }
      in
      Delta.Bgp_neighbor_set { node; nbr; config }
    | 10 ->
      let node, nbr = link () in
      let acl =
        if int 3 = 0 then None
        else Some [ { Acl.permit = int 2 = 0; prefix = prefix () } ]
      in
      Delta.Acl_set { node; nbr; acl }
    | 11 ->
      Delta.Static_set
        { node = node (); routes = List.init (int 3) (fun _ -> (prefix (), nbr ())) }
    | 12 ->
      Delta.Originate_set { node = node (); prefixes = List.init (int 3) (fun _ -> prefix ()) }
    | _ ->
      Delta.Redistribute_set
        {
          node = node ();
          redistribute =
            List.init (int 4) (fun _ ->
                [| Multi.Ospf_into_bgp; Multi.Static_into_bgp; Multi.Bgp_into_ospf |].(int 3));
        }
  in
  List.init (1 + int 6) (fun _ -> one ())

let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

let same_network (a : Device.network) (b : Device.network) =
  let ga = a.Device.graph and gb = b.Device.graph in
  Graph.n_nodes ga = Graph.n_nodes gb
  && List.for_all
       (fun i ->
         String.equal (Graph.name ga i) (Graph.name gb i)
         && Graph.succ ga i = Graph.succ gb i)
       (List.init (Graph.n_nodes ga) Fun.id)
  && a.Device.routers = b.Device.routers

let show ds = String.concat "; " (List.map Delta.to_string ds)

let prop_delta_reference =
  QCheck.Test.make ~count:(25 * fuzz_count) ~name:"delta ≡ list-based reference"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let mk s =
        let n = 4 + (s mod 6) in
        if s mod 2 = 0 then Synthesis.random_network ~n ~seed:s
        else Synthesis.random_multi_network ~n ~seed:s
      in
      let a = mk seed in
      let b =
        match Random.State.int rng 3 with
        | 0 -> mk (seed + 1 + Random.State.int rng 3)
        | 1 -> permute (mk seed) (shuffle rng (Array.init (Graph.n_nodes a.Device.graph) Fun.id))
        | _ -> a
      in
      let check_diff what x y =
        let got = Delta.diff x y and want = Delta_reference.diff x y in
        if got <> want then
          QCheck.Test.fail_reportf "%s: diff [%s], reference [%s]" what (show got) (show want)
      in
      check_diff "a b" a b;
      check_diff "b a" b a;
      let b' = Delta.apply a (Delta.diff a b) in
      if Delta.diff b' b <> [] then
        QCheck.Test.fail_reportf "diff (apply a (diff a b)) b = [%s]" (show (Delta.diff b' b));
      let ds = random_deltas rng a in
      match (outcome (fun () -> Delta.apply a ds), outcome (fun () -> Delta_reference.apply a ds)) with
      | Ok x, Ok y ->
        if not (same_network x y) then
          QCheck.Test.fail_reportf "apply [%s]: networks differ" (show ds);
        check_diff "a (apply a ds)" a x;
        check_diff "(apply a ds) a" x a;
        check_diff "(apply a ds) b" x b;
        true
      | Error m, Error m' ->
        if not (String.equal m m') then
          QCheck.Test.fail_reportf "apply [%s]: raised %S, reference %S" (show ds) m m';
        true
      | Ok _, Error m -> QCheck.Test.fail_reportf "apply [%s]: reference raised %S" (show ds) m
      | Error m, Ok _ -> QCheck.Test.fail_reportf "apply [%s]: raised %S" (show ds) m)

(* --- engine classification ------------------------------------------- *)

let test_reuse_on_remote_change () =
  (* fattree: changing one edge router's ACL far from most destinations
     must reuse every class not involving the touched router *)
  let net = fattree4 () in
  match Incr.init net with
  | Error e -> Alcotest.failf "init: %a" Bonsai_error.pp e
  | Ok st -> (
    let g = net.Device.graph in
    let u = 0 in
    let v = (Graph.succ g u).(0) in
    let d =
      Delta.Acl_set
        {
          node = Graph.name g u;
          nbr = Graph.name g v;
          acl = Some [ { Acl.permit = true; prefix = Prefix.of_string "10.0.0.0/8" } ];
        }
    in
    match Incr.recompress st [ d ] with
    | Error e -> Alcotest.failf "recompress: %a" Bonsai_error.pp e
    | Ok r ->
      Alcotest.(check bool) "not a full rebuild" false r.Incr.r_full_rebuild;
      Alcotest.(check bool) "some classes reused" true (r.Incr.r_reused > 0);
      Alcotest.(check bool) "no scratch recompute" true (r.Incr.r_scratch = 0);
      Alcotest.(check bool) "consistent with scratch" true
        (check_against_scratch st))

let test_noop_recompress_reuses_all () =
  let net = Synthesis.ring_bgp ~n:8 in
  match Incr.init net with
  | Error e -> Alcotest.failf "init: %a" Bonsai_error.pp e
  | Ok st -> (
    match Incr.recompress st [] with
    | Error e -> Alcotest.failf "recompress: %a" Bonsai_error.pp e
    | Ok r ->
      Alcotest.(check int) "all reused" r.Incr.r_ecs r.Incr.r_reused;
      Alcotest.(check int) "none seeded" 0 r.Incr.r_seeded;
      Alcotest.(check int) "none scratch" 0 r.Incr.r_scratch)

let test_node_add_full_rebuild () =
  let net = Synthesis.ring_bgp ~n:6 in
  match Incr.init net with
  | Error e -> Alcotest.failf "init: %a" Bonsai_error.pp e
  | Ok st -> (
    match Incr.recompress st [ Delta.Node_add "spare" ] with
    | Error e -> Alcotest.failf "recompress: %a" Bonsai_error.pp e
    | Ok r ->
      Alcotest.(check bool) "full rebuild" true r.Incr.r_full_rebuild;
      Alcotest.(check bool) "consistent" true (check_against_scratch st))

(* The cold load runs the kernel once per class key: its signature-cache
   misses are those of a fresh cache that compressed only the first
   class of each key, in class order (the datacenter's 1304 classes are
   152 keys). *)
let test_cold_load_once_per_key () =
  let net = (Synthesis.datacenter ()).Synthesis.net in
  match Incr.init net with
  | Error e -> Alcotest.failf "init: %a" Bonsai_error.pp e
  | Ok st ->
    let cache = Sig_cache.create net in
    let seen = Hashtbl.create 256 in
    List.iter
      (fun (ec : Ecs.ec) ->
        let key =
          Compile.class_key net ~dest:(Ecs.single_origin ec)
            ~dest_prefix:ec.Ecs.ec_prefix
        in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          ignore
            (Bonsai_api.compress_ec_exn ~universe:(Sig_cache.universe cache)
               ~rm_bdd:(Sig_cache.rm_bdd cache ~dest:ec.Ecs.ec_prefix)
               net ec
              : Bonsai_api.ec_result)
        end)
      (List.filter Ecs.is_single_origin (Ecs.compute net));
    Alcotest.(check int) "keys" 152 (Hashtbl.length seen);
    Alcotest.(check int) "signature-cache misses"
      (snd (Sig_cache.stats cache))
      (snd (Incr.cache_stats st))

let test_budget_degrades () =
  let net = fattree4 () in
  match Incr.init net with
  | Error e -> Alcotest.failf "init: %a" Bonsai_error.pp e
  | Ok st -> (
    let g = (Incr.network st).Device.graph in
    let d = Delta.Link_down (Graph.name g 0, Graph.name g (Graph.succ g 0).(0)) in
    match Incr.recompress ~budget:(Budget.create ~max_ticks:3 ()) st [ d ] with
    | Error e -> Alcotest.failf "recompress: %a" Bonsai_error.pp e
    | Ok r ->
      Alcotest.(check bool) "degraded" true (r.Incr.r_degradation <> None);
      let s = Incr.summary st in
      Alcotest.(check bool) "summary carries degradation" true
        (s.Bonsai_api.degradation <> None))

(* The engine audits nothing itself: the one audit of a recompressed
   state certifies its whole summary, so every class (reused, seeded,
   shared or recomputed) is checked once, under its own prefix. *)
let audit_state st =
  Certify.check_summary ~audit:Certify.Sample (Incr.network st)
    (Incr.summary st)

let check_certified ~ecs st =
  match audit_state st with
  | Certify.Certified { ecs = n; _ } ->
    Alcotest.(check int) "every class certified" ecs n
  | v -> Alcotest.failf "audit: %a" Certify.pp_verdict v

let test_audit_reused () =
  let net = fattree4 () in
  match Incr.init net with
  | Error e -> Alcotest.failf "init: %a" Bonsai_error.pp e
  | Ok st -> (
    let g = net.Device.graph in
    let u = 0 in
    let v = (Graph.succ g u).(0) in
    let d =
      Delta.Acl_set
        {
          node = Graph.name g u;
          nbr = Graph.name g v;
          acl = Some [ { Acl.permit = true; prefix = Prefix.of_string "10.0.0.0/8" } ];
        }
    in
    match Incr.recompress st [ d ] with
    | Error e -> Alcotest.failf "recompress: %a" Bonsai_error.pp e
    | Ok r ->
      Alcotest.(check bool) "some classes reused" true (r.Incr.r_reused > 0);
      check_certified ~ecs:r.Incr.r_ecs st;
      Alcotest.(check bool) "consistent with scratch" true
        (check_against_scratch st))

(* Classes of one key share a row; the audit checks each of them under
   its own prefix, not only the first of the key (6 classes, 4 keys). *)
let test_audit_shared () =
  let net = Networks.ring6_shared () in
  match Incr.init net with
  | Error e -> Alcotest.failf "init: %a" Bonsai_error.pp e
  | Ok st -> (
    Alcotest.(check int) "keys" 4 (Bonsai_api.behaviours (Incr.summary st));
    match Incr.recompress st [] with
    | Error e -> Alcotest.failf "recompress: %a" Bonsai_error.pp e
    | Ok r ->
      Alcotest.(check int) "all reused" 6 r.Incr.r_reused;
      Alcotest.(check int) "six classes" 6 r.Incr.r_ecs;
      check_certified ~ecs:r.Incr.r_ecs st)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "incr"
    [
      ( "union-split-find",
        [
          Alcotest.test_case "of_class_array" `Quick test_of_class_array;
          Alcotest.test_case "of_class_array empty" `Quick
            test_of_class_array_empty;
          Alcotest.test_case "split_off" `Quick test_split_off;
        ] );
      ("bdd-stats", [ Alcotest.test_case "stats" `Quick test_bdd_stats ]);
      ( "delta",
        [
          Alcotest.test_case "diff identity" `Quick test_diff_identity;
          Alcotest.test_case "diff/apply roundtrip" `Quick
            test_diff_apply_roundtrip;
          Alcotest.test_case "link down purges" `Quick
            test_apply_link_down_purges;
          Alcotest.test_case "invalid delta" `Quick test_apply_invalid;
        ] );
      ("sig-cache", [ Alcotest.test_case "hits" `Quick test_sig_cache_hits ]);
      ( "engine",
        [
          Alcotest.test_case "noop reuses all" `Quick
            test_noop_recompress_reuses_all;
          Alcotest.test_case "remote change reuses" `Quick
            test_reuse_on_remote_change;
          Alcotest.test_case "node add rebuilds" `Quick
            test_node_add_full_rebuild;
          Alcotest.test_case "cold load once per key" `Quick
            test_cold_load_once_per_key;
          Alcotest.test_case "budget degrades" `Quick test_budget_degrades;
          Alcotest.test_case "audit covers reuse" `Quick test_audit_reused;
          Alcotest.test_case "audit covers shared rows" `Quick
            test_audit_shared;
        ] );
      qsuite "fuzz"
        [
          prop_ring;
          prop_fattree;
          prop_random;
          prop_multi;
          prop_shared;
          prop_delta_reference;
        ];
    ]
