(* Tests for the Bonsai core: refinement, abstraction construction, and the
   paper's worked examples (Figures 1, 2/3, 8, 11; Table 1 shapes). *)

(* QCheck iteration count; scale with FUZZ_COUNT. *)
let fuzz_count =
  match Option.bind (Sys.getenv_opt "FUZZ_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 200

let uniform_signature _ _ = 0
let no_prefs _ = []

(* Build a Device.network that only carries a topology (for protocol-level
   tests that bypass the configuration language). *)
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

(* --- Figure 1: the RIP example ------------------------------------- *)

let figure1_graph () =
  (* a -- b1 -- d, a -- b2 -- d *)
  Graph.of_links ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]

let test_figure1_compression () =
  let g = figure1_graph () in
  let t = compress_bare g ~dest:3 in
  Alcotest.(check int) "abstract nodes" 3 (Abstraction.n_abstract t);
  (* b1 and b2 share a group *)
  Alcotest.(check bool) "b1 ~ b2" true
    (t.Abstraction.group_of.(1) = t.Abstraction.group_of.(2));
  Alcotest.(check bool) "a alone" true
    (t.Abstraction.group_of.(0) <> t.Abstraction.group_of.(1))

let test_figure1_rip_equivalence () =
  let g = figure1_graph () in
  let t = compress_bare g ~dest:3 in
  let srp = Rip.make g ~dest:3 in
  let sol = Solver.solve_exn srp in
  (* concrete solution: d=0, b=1, a=2 (Figure 1b) *)
  Alcotest.(check (option int)) "d" (Some 0) (Solution.label sol 3);
  Alcotest.(check (option int)) "b1" (Some 1) (Solution.label sol 1);
  Alcotest.(check (option int)) "a" (Some 2) (Solution.label sol 0);
  let abs_srp = Rip.make t.Abstraction.abs_graph ~dest:t.Abstraction.abs_dest in
  let outcome, abs_sol = Equivalence.check_plain ~abs_srp t sol in
  Alcotest.(check bool)
    (String.concat "; " outcome.Equivalence.errors)
    true outcome.Equivalence.ok;
  match abs_sol with
  | None -> Alcotest.fail "no abstract solution constructed"
  | Some abs_sol ->
    Alcotest.(check (option int)) "abstract b label" (Some 1)
      (Solution.label abs_sol (Abstraction.f t 1))

(* --- Figure 8: forall-exists validity ------------------------------ *)

let test_forall_exists_splits_partial_neighbor () =
  (* d -- b -- a1, d -- c, c has no edge to any a: grouping {b, c} violates
     forall-exists once {a1, a2} is abstract; the algorithm must separate b
     from c. Topology: d(0) - b(1), d(0) - c(2), b(1) - a1(3), b(1) - a2(4). *)
  let g = Graph.of_links ~n:5 [ (0, 1); (0, 2); (1, 3); (1, 4) ] in
  let t = compress_bare g ~dest:0 in
  Alcotest.(check bool) "b and c split" true
    (t.Abstraction.group_of.(1) <> t.Abstraction.group_of.(2));
  (* a1 and a2 are symmetric leaves of b: they merge *)
  Alcotest.(check bool) "a1 ~ a2" true
    (t.Abstraction.group_of.(3) = t.Abstraction.group_of.(4))

(* --- forall-exists condition check on the result -------------------- *)

let test_check_passes_on_refined () =
  let g = Generators.fattree ~k:4 in
  let net = Synthesis.fattree_shortest_path g in
  let ec = List.hd (Ecs.compute net) in
  let r = Bonsai_api.compress_ec_exn net ec in
  match Certify.check_result ~audit:Certify.Full net r with
  | Certify.Certified _ -> ()
  | v -> Alcotest.failf "%a" Certify.pp_verdict v

(* --- Table 1 shapes -------------------------------------------------- *)

let test_fattree_compresses_to_six () =
  let ft = Generators.fattree ~k:4 in
  let net = Synthesis.fattree_shortest_path ft in
  let ec = List.hd (Ecs.compute net) in
  let r = Bonsai_api.compress_ec_exn net ec in
  Alcotest.(check int) "abstract nodes" 6
    (Abstraction.n_abstract r.Bonsai_api.abstraction);
  Alcotest.(check int) "abstract links" 5
    (Graph.n_links r.Bonsai_api.abstraction.Abstraction.abs_graph)

let test_mesh_compresses_to_two () =
  let net = Synthesis.mesh_bgp ~n:10 in
  let ec = List.hd (Ecs.compute net) in
  let r = Bonsai_api.compress_ec_exn net ec in
  Alcotest.(check int) "abstract nodes" 2
    (Abstraction.n_abstract r.Bonsai_api.abstraction);
  Alcotest.(check int) "abstract links" 1
    (Graph.n_links r.Bonsai_api.abstraction.Abstraction.abs_graph)

let test_ring_compresses_to_half () =
  let net = Synthesis.ring_bgp ~n:10 in
  let ec = List.hd (Ecs.compute net) in
  let r = Bonsai_api.compress_ec_exn net ec in
  (* distances 0..5 with pairs merged: 6 abstract nodes for n=10 *)
  Alcotest.(check int) "abstract nodes" 6
    (Abstraction.n_abstract r.Bonsai_api.abstraction)

(* --- Figure 2/3: the BGP loop-prevention gadget ---------------------- *)

let gadget_net () =
  (* d(0) -- b1(1), b2(2), b3(3); a(4) -- each b. The b's prefer routes
     learned from a (local-preference 200 on import from a). *)
  let g =
    Graph.of_links ~n:5 [ (0, 1); (0, 2); (0, 3); (4, 1); (4, 2); (4, 3) ]
  in
  let prefer_a : Route_map.t =
    [ { verdict = Permit; conds = []; actions = [ Set_local_pref 200 ] } ]
  in
  let routers =
    Array.init 5 (fun v ->
        let r = Device.default_router (Graph.name g v) in
        let r =
          {
            r with
            Device.bgp_neighbors =
              Array.to_list (Graph.succ g v)
              |> List.map (fun u ->
                     let import_rm =
                       if v >= 1 && v <= 3 && u = 4 then Some prefer_a else None
                     in
                     (u, { Device.import_rm; export_rm = None; ibgp = false; rel = Device.Rel_unknown }));
          }
        in
        if v = 0 then
          { r with Device.originated = [ Prefix.of_string "10.0.0.0/24" ] }
        else r)
  in
  { Device.graph = g; routers }

let test_gadget_prefs_split () =
  let net = gadget_net () in
  let ec = List.hd (Ecs.compute net) in
  let r = Bonsai_api.compress_ec_exn net ec in
  let t = r.Bonsai_api.abstraction in
  (* groups: {d}, {b1,b2,b3} with 2 copies, {a} -> 4 abstract nodes *)
  Alcotest.(check int) "abstract nodes" 4 (Abstraction.n_abstract t);
  let bgroup = t.Abstraction.group_of.(1) in
  Alcotest.(check int) "b copies" 2 t.Abstraction.copies.(bgroup);
  Alcotest.(check (list int)) "b members" [ 1; 2; 3 ]
    t.Abstraction.groups.(bgroup)

let test_gadget_equivalence () =
  let net = gadget_net () in
  let ec = List.hd (Ecs.compute net) in
  let r = Bonsai_api.compress_ec_exn net ec in
  let t = r.Bonsai_api.abstraction in
  let srp = Compile.bgp_srp net ~dest:0 ~dest_prefix:ec.Ecs.ec_prefix in
  (* multiple stable solutions exist; every one must map to the abstraction *)
  let sols = Solver.solutions_sample ~tries:8 srp in
  Alcotest.(check bool) "found solutions" true (List.length sols >= 1);
  List.iter
    (fun sol ->
      let outcome, _ = Equivalence.check Compile.Bgp t sol in
      Alcotest.(check bool)
        (String.concat "; " outcome.Equivalence.errors)
        true outcome.Equivalence.ok)
    sols

let test_gadget_exhaustive_bisimulation () =
  (* Both directions of CP-equivalence, checked exhaustively on the
     gadget: every concrete stable solution maps into the abstraction
     (Theorem 4.5, forward), and every abstract stable solution is the
     image of some concrete one (reverse — no false positives). Abstract
     solutions are compared up to permutation of a group's copies. *)
  let net = gadget_net () in
  let ec = List.hd (Ecs.compute net) in
  let t = (Bonsai_api.compress_ec_exn net ec).Bonsai_api.abstraction in
  let srp = Compile.bgp_srp net ~dest:0 ~dest_prefix:ec.Ecs.ec_prefix in
  let concrete_sols = Solver.enumerate_solutions srp in
  Alcotest.(check int) "three concrete solutions" 3 (List.length concrete_sols);
  let abs_srp = Abstraction.bgp_srp t in
  let abs_sols = Solver.enumerate_solutions abs_srp in
  Alcotest.(check bool) "abstract solutions exist" true (abs_sols <> []);
  let project (sol : Bgp.attr Solution.t) =
    (* compare up to copy permutation: node ids inside AS paths are
       canonicalized to their group ids *)
    let canon (attr : Bgp.attr) =
      { attr with Bgp.path = List.map (fun a -> t.Abstraction.group_of_abs.(a)) attr.Bgp.path }
    in
    List.init (Abstraction.n_abstract t) (fun a ->
        (t.Abstraction.group_of_abs.(a), Option.map canon (Solution.label sol a)))
    |> List.sort compare
  in
  let constructed =
    List.filter_map
      (fun sol ->
        let outcome, abs = Equivalence.check Compile.Bgp t sol in
        if outcome.Equivalence.ok then Option.map project abs else None)
      concrete_sols
  in
  Alcotest.(check int) "all concrete solutions map" 3 (List.length constructed);
  List.iter
    (fun abs_sol ->
      Alcotest.(check bool) "abstract solution realized concretely" true
        (List.mem (project abs_sol) constructed))
    abs_sols

let test_gadget_naive_abstraction_unsound () =
  (* Collapsing b1,b2,b3 into a single abstract node (Figure 2b) cannot
     map the concrete solution: the construction needs 2 behaviors. *)
  let net = gadget_net () in
  let ec = List.hd (Ecs.compute net) in
  let _, signature = Compile.edge_signatures net ~dest:ec.Ecs.ec_prefix in
  let partition, _ =
    (* lying about prefs: no splitting *)
    Refine.find_partition net ~dest:0 ~signature ~prefs:(fun _ -> [])
  in
  let universe = Policy_bdd.universe_of_network net in
  let t =
    Abstraction.make net ~dest:0 ~dest_prefix:ec.Ecs.ec_prefix ~universe
      ~partition ~copies:(fun _ -> 1)
  in
  let srp = Compile.bgp_srp net ~dest:0 ~dest_prefix:ec.Ecs.ec_prefix in
  let sol = Solver.solve_exn srp in
  let outcome, _ = Equivalence.check Compile.Bgp t sol in
  Alcotest.(check bool) "naive abstraction rejected" false
    outcome.Equivalence.ok

(* --- Figure 13 / Theorem 4.4: the behavior bound ---------------------- *)

let three_level_gadget () =
  (* d(0) -- b1(1), b2(2), b3(3); a1(4) and a2(5) -- each b. The b's
     prefer a2's routes (lp 300) over a1's (lp 200) over direct (100):
     prefs(b) = {100, 200, 300}, so the b group gets three copies, and no
     stable solution may exhibit more than three behaviors. *)
  let g =
    Graph.of_links ~n:6
      [ (0, 1); (0, 2); (0, 3); (4, 1); (4, 2); (4, 3); (5, 1); (5, 2); (5, 3) ]
  in
  let pref lp : Route_map.t =
    [ { verdict = Permit; conds = []; actions = [ Set_local_pref lp ] } ]
  in
  let routers =
    Array.init 6 (fun v ->
        let r = Device.default_router (Graph.name g v) in
        let r =
          {
            r with
            Device.bgp_neighbors =
              Array.to_list (Graph.succ g v)
              |> List.map (fun u ->
                     let import_rm =
                       if v >= 1 && v <= 3 && u = 4 then Some (pref 200)
                       else if v >= 1 && v <= 3 && u = 5 then Some (pref 300)
                       else None
                     in
                     (u, { Device.import_rm; export_rm = None; ibgp = false; rel = Device.Rel_unknown }));
          }
        in
        if v = 0 then
          { r with Device.originated = [ Prefix.of_string "10.0.0.0/24" ] }
        else r)
  in
  { Device.graph = g; routers }

let test_three_level_split_and_bound () =
  let net = three_level_gadget () in
  let ec = List.hd (Ecs.compute net) in
  let r = Bonsai_api.compress_ec_exn net ec in
  let t = r.Bonsai_api.abstraction in
  let bgroup = t.Abstraction.group_of.(1) in
  Alcotest.(check int) "three copies (|prefs| = 3)" 3
    t.Abstraction.copies.(bgroup);
  (* every reachable stable solution maps into the abstraction, i.e. has
     at most |prefs| behaviors (Theorem 4.4) *)
  let srp = Compile.bgp_srp net ~dest:0 ~dest_prefix:ec.Ecs.ec_prefix in
  let sols = Solver.solutions_sample ~tries:16 srp in
  Alcotest.(check bool) "solutions found" true (sols <> []);
  List.iter
    (fun sol ->
      let outcome, _ = Equivalence.check Compile.Bgp t sol in
      Alcotest.(check bool)
        (String.concat "; " outcome.Equivalence.errors)
        true outcome.Equivalence.ok)
    sols

(* --- iBGP neighbors compress together (paper section 6) --------------- *)

let test_ibgp_pair_merges () =
  (* d(0) -(ebgp)- r1(1), r2(2); r1 -(ibgp)- r2; x(3) -(ebgp)- r1, r2.
     The iBGP pair has identical configurations and must merge; the edge
     between them is never used (no re-advertisement over iBGP). *)
  let g = Graph.of_links ~n:4 [ (0, 1); (0, 2); (1, 2); (3, 1); (3, 2) ] in
  let routers =
    Array.init 4 (fun v ->
        let r = Device.default_router (Graph.name g v) in
        let r =
          {
            r with
            Device.bgp_neighbors =
              Array.to_list (Graph.succ g v)
              |> List.map (fun u ->
                     let ibgp = (v = 1 && u = 2) || (v = 2 && u = 1) in
                     ( u,
                       {
                         Device.import_rm = None;
                         export_rm = None;
                         ibgp;
                         rel = Device.Rel_unknown;
                       } ));
          }
        in
        if v = 0 then
          { r with Device.originated = [ Prefix.of_string "10.0.0.0/24" ] }
        else r)
  in
  let net = { Device.graph = g; routers } in
  let ec = List.hd (Ecs.compute net) in
  let r = Bonsai_api.compress_ec_exn net ec in
  let t = r.Bonsai_api.abstraction in
  Alcotest.(check bool) "r1 ~ r2" true
    (t.Abstraction.group_of.(1) = t.Abstraction.group_of.(2));
  Alcotest.(check int) "3 abstract nodes" 3 (Abstraction.n_abstract t);
  (* and the multi-protocol solution maps *)
  let srp = Compile.multi_srp net ~dest:0 ~dest_prefix:ec.Ecs.ec_prefix in
  let sol = Solver.solve_exn srp in
  let outcome, _ = Equivalence.check Compile.Multi t sol in
  Alcotest.(check bool)
    (String.concat "; " outcome.Equivalence.errors)
    true outcome.Equivalence.ok

(* --- Figure 11: policy changes the abstraction size ------------------ *)

let test_figure11_prefer_bottom_is_bigger () =
  let ft = Generators.fattree ~k:4 in
  let shortest = Synthesis.fattree_shortest_path ft in
  let prefer = Synthesis.fattree_prefer_bottom ft in
  let size net =
    let ec = List.hd (Ecs.compute net) in
    let r = Bonsai_api.compress_ec_exn net ec in
    Abstraction.n_abstract r.Bonsai_api.abstraction
  in
  let s1 = size shortest and s2 = size prefer in
  Alcotest.(check bool)
    (Printf.sprintf "prefer-bottom (%d) > shortest-path (%d)" s2 s1)
    true (s2 > s1)

(* --- abstraction accessors --------------------------------------------- *)

(* A network's rows share one copy of each group's member list, so what
   the rows of fattree:20 retain stays under a fixed bound of words
   (counted once where rows share data). *)
let test_rows_share_members () =
  let net = Synthesis.fattree_shortest_path (Generators.fattree ~k:20) in
  let s =
    match Bonsai_api.compress net with
    | Ok s -> s
    | Error e -> Alcotest.fail (Bonsai_error.to_string e)
  in
  let rows =
    List.map
      (fun (r : Bonsai_api.ec_result) ->
        let a = r.Bonsai_api.abstraction in
        Obj.repr
          ( a.Abstraction.group_of, a.Abstraction.groups, a.Abstraction.copies,
            a.Abstraction.abs_of_group, a.Abstraction.group_of_abs,
            a.Abstraction.abs_graph ))
      s.Bonsai_api.results
  in
  let words = Obj.reachable_words (Obj.repr rows) in
  if words > 220_000 then
    Alcotest.failf "fattree:20 rows retain %d words, bound 220000" words;
  let lists =
    List.concat_map
      (fun (r : Bonsai_api.ec_result) ->
        Array.to_list r.Bonsai_api.abstraction.Abstraction.groups)
      s.Bonsai_api.results
  in
  let shared =
    List.exists
      (fun l ->
        List.exists (fun l' -> l' != l && l' = l) lists)
      lists
  in
  Alcotest.(check bool) "equal member lists are one copy" false shared;
  let distinct =
    List.fold_left
      (fun acc l -> if List.exists (fun l' -> l' == l) acc then acc else l :: acc)
      [] lists
  in
  Alcotest.(check bool) "rows hold equal lists" true
    (List.length distinct < List.length lists)

let test_abstraction_accessors () =
  let net = Synthesis.fattree_shortest_path (Generators.fattree ~k:4) in
  let ec = List.hd (Ecs.compute net) in
  let t = (Bonsai_api.compress_ec_exn net ec).Bonsai_api.abstraction in
  (* f is onto the abstract node set for single-copy groups *)
  let hit = Array.make (Abstraction.n_abstract t) false in
  for u = 0 to Graph.n_nodes net.Device.graph - 1 do
    hit.(Abstraction.f t u) <- true
  done;
  Array.iteri
    (fun a h ->
      if t.Abstraction.copies.(t.Abstraction.group_of_abs.(a)) = 1 then
        Alcotest.(check bool) (Printf.sprintf "abstract %d covered" a) true h)
    hit;
  (* repr is a member of its group *)
  for a = 0 to Abstraction.n_abstract t - 1 do
    Alcotest.(check bool) "repr in members" true
      (List.mem (Abstraction.repr_of_abs t a) (Abstraction.members_of_abs t a))
  done;
  (* repr_edge returns genuine concrete edges mapping to the abstract one *)
  Graph.iter_edges t.Abstraction.abs_graph (fun a b ->
      let u, v = Abstraction.repr_edge t a b in
      Alcotest.(check bool) "concrete edge" true
        (Graph.has_edge net.Device.graph u v);
      Alcotest.(check int) "u in group a" t.Abstraction.group_of_abs.(a)
        t.Abstraction.group_of.(u);
      Alcotest.(check int) "v in group b" t.Abstraction.group_of_abs.(b)
        t.Abstraction.group_of.(v));
  (* compression ratio consistent with sizes *)
  let rn, _ = Abstraction.compression_ratio t in
  Alcotest.(check (float 0.001)) "node ratio"
    (float_of_int (Graph.n_nodes net.Device.graph)
    /. float_of_int (Abstraction.n_abstract t))
    rn

let test_h_attr_erasure () =
  let net = (Synthesis.datacenter ()).Synthesis.net in
  let ec = List.hd (Ecs.compute net) in
  let t = (Bonsai_api.compress_ec_exn net ec).Bonsai_api.abstraction in
  (* community 1000 is attached by a leaf but matched nowhere: erased *)
  let a = { Bgp.init with Bgp.comms = [ 1000 ]; path = [ 3; 1 ] } in
  let h = Abstraction.h_attr t ~fr:(fun v -> v * 10) a in
  Alcotest.(check (list int)) "unused comm erased" [] h.Bgp.comms;
  Alcotest.(check (list int)) "path mapped" [ 30; 10 ] h.Bgp.path

(* --- roles (paper section 8) ----------------------------------------- *)

let test_datacenter_roles () =
  let dc = Synthesis.datacenter () in
  let semantic = Bonsai_api.roles dc.Synthesis.net in
  let naive = Bonsai_api.roles ~keep_unmatched_comms:true dc.Synthesis.net in
  Alcotest.(check int) "semantic roles" 26 semantic;
  Alcotest.(check int) "naive roles" 112 naive

(* --- explain ------------------------------------------------------------ *)

let test_explain () =
  let ft = Generators.fattree ~k:4 in
  let net = Synthesis.fattree_prefer_bottom ft in
  let ec = List.hd (Ecs.compute net) in
  (* same role: nothing to explain *)
  Alcotest.(check (list string)) "same role" []
    (Bonsai_api.explain net ec ft.Generators.ft_edge.(2) ft.Generators.ft_edge.(3));
  (* different roles: at least one reason, mentioning the preference gap *)
  let reasons =
    Bonsai_api.explain net ec ft.Generators.ft_agg.(0) ft.Generators.ft_edge.(2)
  in
  Alcotest.(check bool) "has reasons" true (reasons <> []);
  Alcotest.(check bool) "mentions local preferences" true
    (List.exists
       (fun r -> Astring_contains.contains r "local preferences")
       reasons)

(* --- Oracle: the list-based refinement the kernel replaced ---------- *)

(* The former [Union_split_find] (member lists in a table, polymorphic
   [refine]) and [Refine.find_partition], kept verbatim as a reference,
   except that [peel_live_self_edges] scans classes by smallest member
   (the kernel's canonical peel order) instead of by class id. *)
module Oracle = struct
  type t = {
    n : int;
    cls : int array;
    member_lists : (int, int list) Hashtbl.t;
    mutable next_id : int;
  }

  let create n =
    let member_lists = Hashtbl.create 16 in
    if n > 0 then Hashtbl.replace member_lists 0 (List.init n Fun.id);
    { n; cls = Array.make (max n 1) 0; member_lists; next_id = 1 }

  let of_class_array a =
    let n = Array.length a in
    let member_lists = Hashtbl.create 16 in
    let max_id = ref (-1) in
    for x = n - 1 downto 0 do
      let c = a.(x) in
      if c > !max_id then max_id := c;
      let ms = Option.value ~default:[] (Hashtbl.find_opt member_lists c) in
      Hashtbl.replace member_lists c (x :: ms)
    done;
    let cls = Array.make (max n 1) 0 in
    Array.blit a 0 cls 0 n;
    { n; cls; member_lists; next_id = !max_id + 1 }

  let find t x = t.cls.(x)
  let class_members t c = Hashtbl.find t.member_lists c
  let class_size t c = List.length (class_members t c)
  let num_classes t = Hashtbl.length t.member_lists

  let class_ids t =
    Hashtbl.fold (fun c _ acc -> c :: acc) t.member_lists []
    |> List.sort Int.compare

  let split t xs =
    match xs with
    | [] -> invalid_arg "split"
    | x0 :: _ ->
      let c = find t x0 in
      let seen = Hashtbl.create (List.length xs) in
      List.iter (fun x -> Hashtbl.replace seen x ()) xs;
      let old_members = class_members t c in
      let k = Hashtbl.length seen in
      if k = List.length old_members then c
      else begin
        let fresh = t.next_id in
        t.next_id <- fresh + 1;
        List.iter (fun x -> t.cls.(x) <- fresh) xs;
        let moved, kept =
          List.partition (fun x -> Hashtbl.mem seen x) old_members
        in
        Hashtbl.replace t.member_lists c kept;
        Hashtbl.replace t.member_lists fresh moved;
        fresh
      end

  let pin t x = if class_size t (find t x) = 1 then find t x else split t [ x ]
  let is_singleton t x = class_size t (find t x) = 1

  let refine t ~cls ~key =
    match class_members t cls with
    | [] | [ _ ] -> []
    | ms ->
      let groups = Hashtbl.create 8 in
      let order = ref [] in
      List.iter
        (fun x ->
          let k = key x in
          match Hashtbl.find_opt groups k with
          | None ->
            order := k :: !order;
            Hashtbl.replace groups k [ x ]
          | Some xs -> Hashtbl.replace groups k (x :: xs))
        ms;
      let order = List.rev !order in
      if List.length order <= 1 then []
      else begin
        let groups_l =
          List.map (fun k -> List.rev (Hashtbl.find groups k)) order
        in
        let largest =
          List.fold_left
            (fun best g ->
              match best with
              | None -> Some g
              | Some b -> if List.length g > List.length b then Some g else best)
            None groups_l
        in
        let largest = match largest with Some g -> g | None -> assert false in
        List.filter_map
          (fun g -> if g != largest then Some (split t g) else None)
          groups_l
      end

  let canonical t =
    let remap = Hashtbl.create 16 in
    let next = ref 0 in
    Array.init t.n (fun x ->
        let c = t.cls.(x) in
        match Hashtbl.find_opt remap c with
        | Some i -> i
        | None ->
          let i = !next in
          incr next;
          Hashtbl.replace remap c i;
          i)

  let find_partition ~live_self ~pinned ~seed g ~dest ~signature ~prefs =
    let n = Graph.n_nodes g in
    let part = match seed with None -> create n | Some a -> of_class_array a in
    if n > 1 && not (is_singleton part dest) then ignore (split part [ dest ]);
    List.iter (fun u -> ignore (pin part u)) (List.sort_uniq Int.compare pinned);
    let pending = Queue.create () in
    let in_pending = Hashtbl.create 64 in
    let push c =
      if not (Hashtbl.mem in_pending c) then begin
        Hashtbl.replace in_pending c ();
        Queue.add c pending
      end
    in
    let refine_class cls =
      let members = class_members part cls in
      if List.length members > 1 then begin
        let num_prefs = List.length (Refine.group_prefs ~prefs members) in
        let key u =
          Array.to_list (Graph.succ g u)
          |> List.map (fun v ->
                 let nbr = if num_prefs > 1 then v else find part v in
                 (signature u v, signature v u, nbr))
          |> List.sort_uniq compare
        in
        match refine part ~cls ~key with
        | [] -> ()
        | fresh ->
          push cls;
          List.iter
            (fun c ->
              push c;
              List.iter
                (fun v -> Array.iter (fun w -> push (find part w)) (Graph.pred g v))
                (class_members part c))
            fresh
      end
    in
    let signature_fixpoint () =
      List.iter push (class_ids part);
      while not (Queue.is_empty pending) do
        let c = Queue.pop pending in
        Hashtbl.remove in_pending c;
        if class_size part c > 1 then refine_class c
      done
    in
    let peel_live_self_edges () =
      let changed = ref false in
      let canon = canonical part in
      let by_smallest =
        List.sort
          (fun a b -> Int.compare canon.(List.hd (class_members part a)) canon.(List.hd (class_members part b)))
          (class_ids part)
      in
      List.iter
        (fun cls ->
          let members = class_members part cls in
          if List.length members > 1 && !changed = false then begin
            let in_class = Hashtbl.create 8 in
            List.iter (fun u -> Hashtbl.replace in_class u ()) members;
            let offender =
              List.find_opt
                (fun u ->
                  Array.exists
                    (fun v -> Hashtbl.mem in_class v && live_self u v)
                    (Graph.succ g u))
                members
            in
            match offender with
            | Some u ->
              ignore (split part [ u ]);
              changed := true
            | None -> ()
          end)
        by_smallest;
      !changed
    in
    signature_fixpoint ();
    while peel_live_self_edges () do
      signature_fixpoint ()
    done;
    part
end

(* Random graphs with random small-int signatures, local-preference sets,
   pins, seed partitions and live self edges: the kernel and the oracle
   reach the same partition. *)
let gen_refine_case =
  QCheck.Gen.(
    let* n = int_range 1 14 in
    let* links = list_size (int_range 0 (3 * n)) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
    let* one_way = list_size (int_range 0 n) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
    let* sigs = array_repeat (n * n) (frequencyl [ (8, 0); (1, 1); (1, 2) ]) in
    let* prefs =
      array_repeat n (frequencyl [ (6, [ 100 ]); (1, [ 100; 200 ]); (1, [ 200 ]) ])
    in
    let* pinned = list_size (int_range 0 2) (int_bound (n - 1)) in
    let* seed = opt (array_repeat n (int_bound 1)) in
    let* live = list_size (int_range 0 (2 * n)) (int_bound ((n * n) - 1)) in
    let* dest = int_bound (n - 1) in
    return (n, links, one_way, sigs, prefs, pinned, seed, live, dest))

let refine_case_graph (n, links, one_way, _, _, _, _, _, _) =
  let b = Graph.Builder.create () in
  for i = 0 to n - 1 do
    ignore (Graph.Builder.add_node b (Printf.sprintf "n%d" i))
  done;
  List.iter (fun (u, v) -> if u <> v then Graph.Builder.add_link b u v) links;
  List.iter (fun (u, v) -> if u <> v then Graph.Builder.add_edge b u v) one_way;
  Graph.Builder.build b

let prop_kernel_matches_oracle =
  QCheck.Test.make ~count:fuzz_count ~name:"refinement kernel = list-based oracle"
    (QCheck.make gen_refine_case
       ~print:(fun (n, links, one_way, sigs, prefs, pinned, seed, live, dest) ->
         let ints l = String.concat ";" (List.map string_of_int l) in
         let pairs l =
           String.concat ";" (List.map (fun (u, v) -> Printf.sprintf "%d,%d" u v) l)
         in
         Printf.sprintf
           "n=%d links=[%s] one_way=[%s] sigs=[%s] prefs=[%s] pinned=[%s] seed=%s live=[%s] dest=%d"
           n (pairs links) (pairs one_way) (ints (Array.to_list sigs))
           (String.concat " " (Array.to_list (Array.map ints prefs)))
           (ints pinned)
           (match seed with None -> "-" | Some a -> ints (Array.to_list a))
           (ints live) dest))
    (fun ((n, _, _, sigs, prefs, pinned, seed, live, dest) as case) ->
      let g = refine_case_graph case in
      let signature u v = sigs.((u * n) + v) in
      let prefs u = prefs.(u) in
      let live_self u v = List.mem ((u * n) + v) live in
      let expected =
        Oracle.find_partition ~live_self ~pinned ~seed g ~dest ~signature ~prefs
      in
      let part, _ =
        Refine.find_partition (bare_net g) ~live_self ~pinned
          ?seed:(Option.map Union_split_find.of_class_array seed)
          ~dest ~signature ~prefs
      in
      Union_split_find.canonical part = Oracle.canonical expected
      && Union_split_find.num_classes part = Oracle.num_classes expected)

(* Peel order: classes by smallest member, then the smallest offender.
   Classes {0,4} (live 4->0) and {1,2,3} (live 1->2, 2->3) both hold a
   live self edge. Peeling 4 first separates 2 (the only one linked to 4)
   and leaves {1,3}; peeling the globally smallest offender 1 first (or
   the class with the lower id, {1,2,3}) ends in the discrete partition. *)
let test_peel_order_canonical () =
  let g =
    Graph.of_links ~n:6
      [ (1, 2); (2, 3); (1, 3); (1, 0); (3, 0); (2, 4); (0, 4); (0, 5); (4, 5) ]
  in
  let live_self u v = List.mem (u, v) [ (4, 0); (1, 2); (2, 3) ] in
  let part, _ =
    Refine.find_partition (bare_net g) ~live_self ~dest:5
      ~signature:uniform_signature ~prefs:(fun _ -> [ 100 ])
  in
  Alcotest.(check (array int)) "canonical classes" [| 0; 1; 2; 1; 3; 4 |]
    (Union_split_find.canonical part)

(* A seed over a different node count is refused, naming the entry
   point the caller reached. *)
let test_seed_size_mismatch () =
  let g = Graph.of_links ~n:3 [ (0, 1); (1, 2) ] in
  Alcotest.check_raises "names Refine.partition"
    (Invalid_argument "Refine.partition: seed size mismatch") (fun () ->
      ignore
        (Refine.partition (bare_net g) ~dest:0
           ~seed:(Union_split_find.create 4)
           ~edge_key:(fun _ _ -> 0)
           ~prefs:(fun _ -> [])
          : Union_split_find.t * Refine.stats))

(* Work counter as a complexity trip-wire: member keys evaluated stay
   within c * E * ceil(log2 V) on the ring (one distance class peeled per
   round) and the mesh (the worst shape per edge) as they double. *)
let test_keyed_bound () =
  let ceil_log2 v =
    let rec go k p = if p >= v then k else go (k + 1) (2 * p) in
    go 0 1
  in
  List.iter
    (fun (name, make) ->
      List.iter
        (fun n ->
          let net = make ~n in
          let ec = List.hd (Ecs.compute net) in
          let r = Bonsai_api.compress_ec_exn net ec in
          let g = net.Device.graph in
          let bound = 2 * Graph.n_edges g * ceil_log2 (Graph.n_nodes g) in
          let keyed = r.Bonsai_api.refine_stats.Refine.keyed in
          if keyed > bound then
            Alcotest.failf "%s:%d: %d keys evaluated, bound %d" name n keyed
              bound)
        [ 64; 128; 256 ])
    [ ("ring", Synthesis.ring_bgp); ("mesh", Synthesis.mesh_bgp) ]

(* The same trip-wire for the change model: applying a one-edit delta and
   diffing the result against the original stay within c * (routers +
   links) on fattree:k as k triples, for a configuration edit and for a
   link failure. A link scan per link, or a pass over every router per
   delta, is quadratic there. *)
let test_delta_linear () =
  List.iter
    (fun k ->
      let net = Synthesis.fattree_shortest_path (Generators.fattree ~k) in
      let g = net.Device.graph in
      let node = Graph.name g 0 and nbr = Graph.name g (Graph.succ g 0).(0) in
      let size = Graph.n_nodes g + Graph.n_links g in
      let within what ds =
        let w0 = Delta.work () in
        let back = Delta.diff net (Delta.apply net ds) in
        let work = Delta.work () - w0 in
        Alcotest.(check bool) "the edits come back" true (back <> []);
        if work > 8 * size then
          Alcotest.failf "fattree:%d, %s: %d work units, bound %d" k what work
            (8 * size)
      in
      List.iter
        (fun d -> within (Delta.to_string d) [ d ])
        [
          Delta.Ospf_link_set { node; nbr; link = Some { Device.cost = 5; area = 0 } };
          Delta.Link_down (node, nbr);
        ];
      (* k edits in one list: each costs its own routers, not a pass over
         the network. *)
      let links = ref [] in
      Graph.iter_edges g (fun u v ->
          if u < v then links := (Graph.name g u, Graph.name g v) :: !links);
      let first_k l = List.filteri (fun i _ -> i < k) l in
      within
        (Printf.sprintf "%d links down" k)
        (List.map (fun (a, b) -> Delta.Link_down (a, b)) (first_k (List.rev !links)));
      within
        (Printf.sprintf "%d nodes removed" k)
        (List.init k (fun i -> Delta.Node_remove (Graph.name g i))))
    [ 8; 16; 24 ]

(* --- one per-class path ------------------------------------------------ *)

let prefix_of (ec : Ecs.ec) = Prefix.to_string ec.Ecs.ec_prefix

(* The one loop: the worker runs on the first class of each key, and a
   budget cut at its [i]-th run keeps the classes before the cut, shared
   ones included, compressed in order and counted as completed, and
   turns that class and every later one into an untimed identity
   fallback. *)
let test_compress_classes_degrades () =
  let info =
    { Budget.phase = "test"; ticks = 7; elapsed_s = 0.0; note = None }
  in
  List.iter
    (fun (net, want_keys) ->
      let ecs = List.filter Ecs.is_single_origin (Ecs.compute net) in
      let n = List.length ecs in
      let firsts =
        let seen = Hashtbl.create 16 in
        List.concat
          (List.mapi
             (fun j (ec : Ecs.ec) ->
               let k =
                 Compile.class_key net ~dest:(Ecs.single_origin ec)
                   ~dest_prefix:ec.Ecs.ec_prefix
               in
               if Hashtbl.mem seen k then []
               else begin
                 Hashtbl.add seen k ();
                 [ j ]
               end)
             ecs)
      in
      let keys = List.length firsts in
      Alcotest.(check int) "keys" want_keys keys;
      for i = 0 to keys do
        let cut = if i < keys then List.nth firsts i else n in
        let calls = ref 0 in
        let worker ec =
          if !calls = i then raise (Budget.Exhausted info);
          incr calls;
          Bonsai_api.compress_ec_exn net ec
        in
        let results, deg = Bonsai_api.compress_classes net ecs worker in
        Alcotest.(check int) "one worker run per key before the cut" i !calls;
        Alcotest.(check (list string))
          "class order" (List.map prefix_of ecs)
          (List.map
             (fun (r : Bonsai_api.ec_result) -> prefix_of r.Bonsai_api.ec)
             results);
        List.iteri
          (fun j (r : Bonsai_api.ec_result) ->
            Alcotest.(check bool) "degraded from the cut on" (j >= cut)
              r.Bonsai_api.degraded;
            Alcotest.(check string) "own prefix" (prefix_of r.Bonsai_api.ec)
              (Prefix.to_string
                 r.Bonsai_api.abstraction.Abstraction.dest_prefix);
            if j >= cut then begin
              Alcotest.(check (float 0.0)) "untimed" 0.0 r.Bonsai_api.time_s;
              Alcotest.(check bool) "identity" true
                (Abstraction.is_identity r.Bonsai_api.abstraction)
            end)
          results;
        match deg with
        | None -> Alcotest.(check int) "no raise, no degradation" keys i
        | Some d ->
          Alcotest.(check int) "completed" cut d.Bonsai_api.deg_completed;
          Alcotest.(check int) "total" n d.Bonsai_api.deg_total;
          Alcotest.(check int) "info kept" 7 d.Bonsai_api.deg_info.Budget.ticks
      done)
    [
      (Synthesis.fattree_shortest_path (Generators.fattree ~k:4), 8);
      (Networks.ring6_shared (), 4);
    ]

(* Seeding with a finer partition than the scratch one — the discrete
   partition (a stable over-refinement of anything) or a random
   refinement of the scratch partition — and merging back
   ({!Refine.quotient_merge}) gives the scratch abstraction on every
   seedable class. The families are rings, fattree k=4, and the
   multi-region WAN. *)
let prop_seeded_matches_scratch =
  QCheck.Test.make ~count:fuzz_count
    ~name:"seeded = scratch"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let net =
        match seed mod 3 with
        | 0 -> Synthesis.ring_bgp ~n:(5 + (seed mod 5))
        | 1 -> Synthesis.fattree_shortest_path (Generators.fattree ~k:4)
        | _ ->
          (Synthesis.multiwan ~regions:(2 + (seed mod 2))
             ~region_size:(3 + (seed mod 2)))
            .Synthesis.net
      in
      let rng = Random.State.make [| seed |] in
      let n = Graph.n_nodes net.Device.graph in
      let canon (r : Bonsai_api.ec_result) =
        Union_split_find.canonical
          (Union_split_find.of_class_array
             r.Bonsai_api.abstraction.Abstraction.group_of)
      in
      let links (r : Bonsai_api.ec_result) =
        Graph.n_links r.Bonsai_api.abstraction.Abstraction.abs_graph
      in
      let prefs_trivial = Bonsai_api.no_lp_no_redistribute net in
      let seedable =
        List.filter
          (fun ec ->
            Ecs.is_single_origin ec
            && Bonsai_api.ec_seedable ~prefs_trivial net ec)
          (Ecs.compute net)
      in
      if seedable = [] then QCheck.Test.fail_report "no seedable class";
      List.for_all
        (fun ec ->
          let scratch = Bonsai_api.compress_ec_exn net ec in
          (* each scratch group split in two at random *)
          let refined =
            Array.map
              (fun g -> (2 * g) + Random.State.int rng 2)
              scratch.Bonsai_api.abstraction.Abstraction.group_of
          in
          List.for_all
            (fun (what, part) ->
              let seeded = Bonsai_api.compress_ec_exn ~seed:part net ec in
              canon seeded = canon scratch
              && links seeded = links scratch
              || QCheck.Test.fail_reportf "%s seed, class %s: partition or \
                                           links differ"
                   what (prefix_of ec))
            [
              ("discrete", Union_split_find.discrete n);
              ("refined", Union_split_find.of_class_array refined);
            ])
        seedable)

let () =
  Alcotest.run "bonsai-core"
    [
      ( "figure1",
        [
          Alcotest.test_case "compression" `Quick test_figure1_compression;
          Alcotest.test_case "rip equivalence" `Quick
            test_figure1_rip_equivalence;
        ] );
      ( "topology-abstraction",
        [
          Alcotest.test_case "forall-exists split" `Quick
            test_forall_exists_splits_partial_neighbor;
          Alcotest.test_case "conditions hold" `Quick
            test_check_passes_on_refined;
        ] );
      ( "table1-shapes",
        [
          Alcotest.test_case "fattree -> 6" `Quick test_fattree_compresses_to_six;
          Alcotest.test_case "mesh -> 2" `Quick test_mesh_compresses_to_two;
          Alcotest.test_case "ring -> n/2+1" `Quick test_ring_compresses_to_half;
        ] );
      ( "bgp-gadget",
        [
          Alcotest.test_case "prefs split" `Quick test_gadget_prefs_split;
          Alcotest.test_case "equivalence" `Quick test_gadget_equivalence;
          Alcotest.test_case "exhaustive bisimulation" `Quick
            test_gadget_exhaustive_bisimulation;
          Alcotest.test_case "naive unsound" `Quick
            test_gadget_naive_abstraction_unsound;
        ] );
      ( "theorem-4.4",
        [
          Alcotest.test_case "three-level bound" `Quick
            test_three_level_split_and_bound;
        ] );
      ( "ibgp",
        [ Alcotest.test_case "pair merges" `Quick test_ibgp_pair_merges ] );
      ( "figure11",
        [
          Alcotest.test_case "prefer-bottom bigger" `Quick
            test_figure11_prefer_bottom_is_bigger;
        ] );
      ( "abstraction",
        [
          Alcotest.test_case "accessors" `Quick test_abstraction_accessors;
          Alcotest.test_case "h erasure" `Quick test_h_attr_erasure;
          Alcotest.test_case "rows share member lists" `Quick
            test_rows_share_members;
        ] );
      ( "explain",
        [ Alcotest.test_case "role differences" `Quick test_explain ] );
      ( "roles",
        [ Alcotest.test_case "datacenter 26/112" `Quick test_datacenter_roles ]
      );
      ( "complexity",
        [
          Alcotest.test_case "keyed within E log V" `Quick test_keyed_bound;
          Alcotest.test_case "delta within V + E" `Quick test_delta_linear;
        ] );
      ( "peel",
        [ Alcotest.test_case "canonical order" `Quick test_peel_order_canonical ] );
      ( "per-class",
        [
          Alcotest.test_case "compress_classes degrades in order" `Quick
            test_compress_classes_degrades;
          Alcotest.test_case "seed size mismatch" `Quick
            test_seed_size_mismatch;
        ] );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [ prop_kernel_matches_oracle; prop_seeded_matches_scratch ] );
    ]
