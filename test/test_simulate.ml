(* Solver and solution semantics: stability, Theorem 4.1 (solutions of
   loop-free SRPs form DAGs), agreement with reference shortest-path
   algorithms, multipath, and divergence detection. *)

(* reference BFS distance *)
let bfs_dist g ~dest =
  let n = Graph.n_nodes g in
  let dist = Array.make n (-1) in
  dist.(dest) <- 0;
  let q = Queue.create () in
  Queue.add dest q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Array.iter
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end)
      (Graph.succ g u)
  done;
  dist

let is_dag_rooted_at_dest sol =
  let g = sol.Solution.srp.Srp.graph in
  let n = Graph.n_nodes g in
  let color = Array.make n 0 in
  let acyclic = ref true in
  let rec visit u =
    if color.(u) = 1 then acyclic := false
    else if color.(u) = 0 then begin
      color.(u) <- 1;
      List.iter (fun (_, v) -> visit v) (Solution.fwd sol u);
      color.(u) <- 2
    end
  in
  for u = 0 to n - 1 do
    visit u
  done;
  !acyclic

let test_solver_stable_on_ring_rip () =
  let g = Generators.ring ~n:9 in
  let sol = Solver.solve_exn (Rip.make g ~dest:0) in
  Alcotest.(check bool) "stable" true (Solution.is_stable sol);
  Alcotest.(check bool) "dag" true (is_dag_rooted_at_dest sol);
  let dist = bfs_dist g ~dest:0 in
  for u = 0 to 8 do
    Alcotest.(check (option int)) "bfs distance" (Some dist.(u))
      (Solution.label sol u)
  done

let test_multipath_fwd () =
  (* diamond: 0 -- 1 -- 3, 0 -- 2 -- 3: node 3 has two equal paths *)
  let g = Graph.of_links ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let sol = Solver.solve_exn (Rip.make g ~dest:0) in
  Alcotest.(check int) "two forwarding edges" 2
    (List.length (Solution.fwd sol 3))

let test_dest_label_and_fwd () =
  let g = Generators.ring ~n:5 in
  let sol = Solver.solve_exn (Rip.make g ~dest:2) in
  Alcotest.(check (option int)) "dest label" (Some 0) (Solution.label sol 2);
  Alcotest.(check (list (pair int int))) "dest forwards nowhere" []
    (Solution.fwd sol 2)

let test_stability_violations_detected () =
  let g = Generators.ring ~n:5 in
  let srp = Rip.make g ~dest:0 in
  let sol = Solver.solve_exn srp in
  (* corrupt the solution *)
  let bad = Solution.of_labels sol.Solution.srp (Array.copy sol.Solution.labels) in
  bad.Solution.labels.(2) <- Some 7;
  Alcotest.(check bool) "corrupted is unstable" false (Solution.is_stable bad);
  Alcotest.(check bool) "violation names node 2" true
    (List.mem_assoc 2 (Solution.stability_violations bad))

let test_path_enumeration () =
  let g = Graph.of_links ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let sol = Solver.solve_exn (Rip.make g ~dest:0) in
  let paths =
    Forwarding.walk ~all:true
      ~lookup:(fun u -> List.map snd (Solution.fwd sol u))
      ~dest:(Some 0) 3
  in
  Alcotest.(check int) "two paths" 2 (List.length paths);
  List.iter
    (function
      | Forwarding.Delivered p ->
        Alcotest.(check int) "length 3" 3 (List.length p);
        Alcotest.(check (option int)) "ends at dest" (Some 0)
          (List.nth_opt p (List.length p - 1))
      | _ -> Alcotest.fail "every path delivers")
    paths

let test_reaches () =
  let g = Graph.of_links ~n:4 [ (0, 1); (1, 2) ] in
  (* node 3 is isolated *)
  let sol = Solver.solve_exn (Rip.make g ~dest:0) in
  Alcotest.(check bool) "2 reaches" true (Solution.reaches sol 2);
  Alcotest.(check bool) "3 does not" false (Solution.reaches sol 3)

(* y(0) -> {x(1), z(2)}, x -> y, z -> nothing; the destination (3) is
   unreachable. Walked from y first, x is reached while y is still open,
   yet x -> y -> z drops: every router of the cycle must get the whole
   component's outcome, not the partial one seen on the way in. *)
let test_outcomes_on_loop () =
  let hops = [| [ 1; 2 ]; [ 0 ]; []; [] |] in
  let outcome = Forwarding.outcomes ~n:4 ~lookup:(Array.get hops) ~dest:3 in
  let show (o : Forwarding.outcome) =
    (o.Forwarding.delivers, o.Forwarding.drops, o.Forwarding.loops)
  in
  let flags = Alcotest.(triple bool bool bool) in
  Alcotest.check flags "y drops and loops" (false, true, true)
    (show (outcome 0));
  Alcotest.check flags "x drops and loops" (false, true, true)
    (show (outcome 1));
  Alcotest.check flags "z only drops" (false, true, false) (show (outcome 2));
  Alcotest.check flags "the destination delivers" (true, false, false)
    (show (outcome 3));
  Alcotest.(check bool) "no router of the loop reaches" false
    (Forwarding.reaches (outcome 1))

let test_solver_stats () =
  let g = Generators.ring ~n:8 in
  match Solver.solve (Rip.make g ~dest:0) with
  | Ok (_, stats) ->
    Alcotest.(check bool) "steps counted" true (stats.Solver.steps >= 8);
    Alcotest.(check bool) "updates bounded by steps" true
      (stats.Solver.updates <= stats.Solver.steps)
  | Error _ -> Alcotest.fail "ring diverged"

let test_solver_budget_exhaustion () =
  (* an absurdly small budget forces the divergence report even on a
     convergent instance *)
  let g = Generators.ring ~n:10 in
  match Solver.solve ~max_steps:1 (Rip.make g ~dest:0) with
  | Error (`Diverged _) -> ()
  | Error (`Budget _) -> Alcotest.fail "max_steps must diagnose, not bail"
  | Ok _ -> Alcotest.fail "budget of 1 step cannot solve a 10-ring"

let test_solution_choices () =
  let g = Graph.of_links ~n:3 [ (0, 1); (0, 2) ] in
  let sol = Solver.solve_exn (Rip.make g ~dest:0) in
  (* node 0 is offered hop-2 routes back from both leaves *)
  let cs = Solution.choices sol 0 in
  Alcotest.(check int) "two choices" 2 (List.length cs);
  List.iter
    (fun ((u, _), a) ->
      Alcotest.(check int) "receiver" 0 u;
      Alcotest.(check int) "echoed route" 2 a)
    cs

let test_solution_pp_smoke () =
  let g = Graph.of_links ~n:2 [ (0, 1) ] in
  let sol = Solver.solve_exn (Rip.make g ~dest:0) in
  let s = Format.asprintf "%a" Solution.pp sol in
  Alcotest.(check bool) "mentions nodes" true
    (Astring_contains.contains s "n0" && Astring_contains.contains s "n1")

(* --- seeded solving explores multiple stable solutions --------------- *)

let gadget_srp () =
  (* Figure 2's gadget, directly as an SRP: b's prefer routes from a. *)
  let g =
    Graph.of_links ~n:5 [ (0, 1); (0, 2); (0, 3); (4, 1); (4, 2); (4, 3) ]
  in
  let policy u v (a : Bgp.attr) =
    if u >= 1 && u <= 3 && v = 4 then Some { a with Bgp.lp = 200 } else Some a
  in
  Bgp.make ~policy g ~dest:0

let test_enumerate_ring_unique () =
  (* shortest-path RIP on a ring has exactly one stable solution *)
  let g = Generators.ring ~n:6 in
  let sols = Solver.enumerate_solutions (Rip.make g ~dest:0) in
  Alcotest.(check int) "unique solution" 1 (List.length sols);
  Alcotest.(check bool) "matches the solver" true
    ((List.hd sols).Solution.labels
    = (Solver.solve_exn (Rip.make g ~dest:0)).Solution.labels)

let test_enumerate_gadget_exactly_three () =
  (* the Figure 2 gadget has exactly three stable solutions: each b can be
     the one routing directly *)
  let sols = Solver.enumerate_solutions (gadget_srp ()) in
  Alcotest.(check int) "three solutions" 3 (List.length sols);
  List.iter
    (fun s -> Alcotest.(check bool) "stable" true (Solution.is_stable s))
    sols;
  (* sampling finds a subset of the enumeration *)
  List.iter
    (fun s ->
      Alcotest.(check bool) "sampled solution is enumerated" true
        (List.exists (fun s' -> s'.Solution.labels = s.Solution.labels) sols))
    (Solver.solutions_sample ~tries:16 (gadget_srp ()))

let test_enumerate_rejects_large () =
  let g = Generators.ring ~n:20 in
  Alcotest.check_raises "too large"
    (Invalid_argument "Solver.enumerate_solutions: network too large")
    (fun () -> ignore (Solver.enumerate_solutions (Rip.make g ~dest:0)))

let test_gadget_multiple_solutions () =
  let sols = Solver.solutions_sample ~tries:24 (gadget_srp ()) in
  (* three symmetric solutions: each b can be the direct router *)
  Alcotest.(check bool)
    (Printf.sprintf "found %d distinct solutions" (List.length sols))
    true
    (List.length sols >= 2);
  List.iter
    (fun s -> Alcotest.(check bool) "each stable" true (Solution.is_stable s))
    sols

(* --- divergence: a bad-gadget-style SRP with no stable solution ------ *)

type owned = { owner : int; opath : int list }

let bad_gadget_srp () =
  (* Nodes 1,2,3 around dest 0, ring edges between them. Each node ranks
     the two-hop path through its clockwise neighbor above its direct
     path, and everything else below — the classic BGP "bad gadget"
     (Griffin et al.), which has no stable solution. *)
  let g =
    Graph.of_links ~n:4 [ (0, 1); (0, 2); (0, 3); (1, 2); (2, 3); (3, 1) ]
  in
  let clockwise = function 1 -> 2 | 2 -> 3 | 3 -> 1 | _ -> 0 in
  let rank o = function
    | [ v; 0 ] when v = clockwise o -> 0
    | [ 0 ] -> 1
    | _ -> 2
  in
  {
    Srp.graph = g;
    dest = 0;
    init = { owner = 0; opath = [] };
    compare = (fun a b ->
      if a.owner = b.owner then compare (rank a.owner a.opath) (rank b.owner b.opath)
      else 0);
    trans =
      (fun u v a ->
        match a with
        | None -> None
        | Some a ->
          let opath = v :: a.opath in
          if List.mem u opath then None else Some { owner = u; opath });
    attr_equal = ( = );
    pp_attr = (fun ppf a -> Format.fprintf ppf "%d:%s" a.owner
                  (String.concat "." (List.map string_of_int a.opath)));
  }

let test_enumerate_bad_gadget_empty () =
  Alcotest.(check int) "no stable solution" 0
    (List.length (Solver.enumerate_solutions (bad_gadget_srp ())))

let test_bad_gadget_diverges () =
  match Solver.solve ~max_steps:20000 (bad_gadget_srp ()) with
  | Ok (sol, _) ->
    Alcotest.failf "unexpected stable solution:@ %a" Solution.pp sol
  | Error (`Budget _) -> Alcotest.fail "max_steps must diagnose, not bail"
  | Error (`Diverged _) -> ()

let test_divergence_across_seeds () =
  for seed = 0 to 7 do
    match Solver.solve ~seed ~max_steps:20000 (bad_gadget_srp ()) with
    | Ok _ -> Alcotest.fail "bad gadget stabilized"
    | Error _ -> ()
  done

(* --- property tests -------------------------------------------------- *)

let prop_rip_stable_and_dag =
  QCheck.Test.make ~name:"RIP solutions stable + DAG (Thm 4.1)" ~count:60
    QCheck.(pair (int_range 2 25) (int_range 0 1000))
    (fun (n, seed) ->
      let g = Generators.random_connected ~n ~extra:(n / 2) ~seed in
      let sol = Solver.solve_exn (Rip.make g ~dest:0) in
      Solution.is_stable sol && is_dag_rooted_at_dest sol)

let prop_rip_labels_are_bfs =
  QCheck.Test.make ~name:"RIP labels are BFS distances" ~count:60
    QCheck.(pair (int_range 2 20) (int_range 0 1000))
    (fun (n, seed) ->
      let g = Generators.random_connected ~n ~extra:(n / 2) ~seed in
      let sol = Solver.solve_exn (Rip.make g ~dest:0) in
      let dist = bfs_dist g ~dest:0 in
      let ok = ref true in
      for u = 0 to n - 1 do
        let expect = if dist.(u) > Rip.max_hops then None else Some dist.(u) in
        if Solution.label sol u <> expect then ok := false
      done;
      !ok)

let prop_ospf_stable_any_seed =
  QCheck.Test.make ~name:"OSPF stable under any activation order" ~count:60
    QCheck.(triple (int_range 2 20) (int_range 0 500) (int_range 0 10))
    (fun (n, seed, solver_seed) ->
      let g = Generators.random_connected ~n ~extra:(n / 2) ~seed in
      let cost u v = 1 + ((u + (3 * v)) mod 5) in
      match Solver.solve ~seed:solver_seed (Ospf.make ~cost g ~dest:0) with
      | Ok (sol, _) -> Solution.is_stable sol && is_dag_rooted_at_dest sol
      | Error _ -> false)

let prop_bgp_config_stable =
  QCheck.Test.make ~name:"random configured BGP networks stabilize" ~count:40
    QCheck.(pair (int_range 2 16) (int_range 0 500))
    (fun (n, seed) ->
      let net = Synthesis.random_network ~n ~seed in
      let ec = List.hd (Ecs.compute net) in
      let srp = Compile.bgp_srp net ~dest:0 ~dest_prefix:ec.Ecs.ec_prefix in
      match Solver.solve srp with
      | Ok (sol, _) -> Solution.is_stable sol && is_dag_rooted_at_dest sol
      | Error _ -> false)

let () =
  Alcotest.run "simulate"
    [
      ( "solver",
        [
          Alcotest.test_case "ring rip" `Quick test_solver_stable_on_ring_rip;
          Alcotest.test_case "multipath" `Quick test_multipath_fwd;
          Alcotest.test_case "destination" `Quick test_dest_label_and_fwd;
          Alcotest.test_case "violations detected" `Quick
            test_stability_violations_detected;
          Alcotest.test_case "path enumeration" `Quick
            test_path_enumeration;
          Alcotest.test_case "reaches" `Quick test_reaches;
          Alcotest.test_case "outcomes on a loop" `Quick test_outcomes_on_loop;
          Alcotest.test_case "stats" `Quick test_solver_stats;
          Alcotest.test_case "budget exhaustion" `Quick
            test_solver_budget_exhaustion;
          Alcotest.test_case "choices" `Quick test_solution_choices;
          Alcotest.test_case "pp" `Quick test_solution_pp_smoke;
        ] );
      ( "multiple-solutions",
        [
          Alcotest.test_case "gadget solutions" `Quick
            test_gadget_multiple_solutions;
          Alcotest.test_case "enumerate: ring unique" `Quick
            test_enumerate_ring_unique;
          Alcotest.test_case "enumerate: gadget = 3" `Quick
            test_enumerate_gadget_exactly_three;
          Alcotest.test_case "enumerate: bad gadget = 0" `Quick
            test_enumerate_bad_gadget_empty;
          Alcotest.test_case "enumerate: size guard" `Quick
            test_enumerate_rejects_large;
        ] );
      ( "divergence",
        [
          Alcotest.test_case "bad gadget" `Quick test_bad_gadget_diverges;
          Alcotest.test_case "all seeds" `Quick test_divergence_across_seeds;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_rip_stable_and_dag;
            prop_rip_labels_are_bfs;
            prop_ospf_stable_any_seed;
            prop_bgp_config_stable;
          ] );
    ]
