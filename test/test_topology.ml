(* Graph and generator tests. *)

let test_builder_basics () =
  let b = Graph.Builder.create () in
  let a = Graph.Builder.add_node b "a" in
  let c = Graph.Builder.add_node b "c" in
  Graph.Builder.add_edge b a c;
  let g = Graph.Builder.build b in
  Alcotest.(check int) "nodes" 2 (Graph.n_nodes g);
  Alcotest.(check int) "edges" 1 (Graph.n_edges g);
  Alcotest.(check int) "links (one-way counts)" 1 (Graph.n_links g);
  Alcotest.(check bool) "has edge" true (Graph.has_edge g a c);
  Alcotest.(check bool) "directed" false (Graph.has_edge g c a);
  Alcotest.(check string) "name" "a" (Graph.name g a);
  Alcotest.(check (option int)) "find_by_name" (Some c) (Graph.find_by_name g "c")

let test_builder_rejects_self_loop () =
  let b = Graph.Builder.create () in
  let a = Graph.Builder.add_node b "a" in
  Alcotest.check_raises "self loop"
    (Invalid_argument "Graph.Builder.add_edge: self-loop") (fun () ->
      Graph.Builder.add_edge b a a)

let test_duplicate_edges_ignored () =
  let g = Graph.of_links ~n:2 [ (0, 1); (0, 1); (1, 0) ] in
  Alcotest.(check int) "edges" 2 (Graph.n_edges g);
  Alcotest.(check int) "links" 1 (Graph.n_links g)

let test_succ_pred () =
  let g = Graph.of_links ~n:4 [ (0, 1); (0, 2); (3, 0) ] in
  Alcotest.(check (array int)) "succ 0" [| 1; 2; 3 |] (Graph.succ g 0);
  Alcotest.(check (array int)) "pred 1" [| 0 |] (Graph.pred g 1);
  Alcotest.(check int) "degree" 3 (Graph.degree g 0)

let test_connectivity () =
  Alcotest.(check bool) "ring connected" true
    (Graph.is_connected (Generators.ring ~n:5));
  let b = Graph.Builder.create () in
  ignore (Graph.Builder.add_node b "x");
  ignore (Graph.Builder.add_node b "y");
  Alcotest.(check bool) "two isolated nodes" false
    (Graph.is_connected (Graph.Builder.build b))

let test_fattree_sizes () =
  List.iter
    (fun (k, nodes) ->
      let ft = Generators.fattree ~k in
      Alcotest.(check int)
        (Printf.sprintf "k=%d nodes" k)
        nodes
        (Graph.n_nodes ft.Generators.ft_graph);
      (* k^3/2 links: k^3/4 edge-agg + k^3/4 agg-core *)
      Alcotest.(check int)
        (Printf.sprintf "k=%d links" k)
        (k * k * k / 2)
        (Graph.n_links ft.Generators.ft_graph);
      Alcotest.(check bool) "connected" true
        (Graph.is_connected ft.Generators.ft_graph))
    [ (4, 20); (12, 180); (20, 500); (30, 1125) ]

let test_fattree_pods () =
  let ft = Generators.fattree ~k:4 in
  Array.iter
    (fun v -> Alcotest.(check int) "core pod" (-1) ft.Generators.ft_pod.(v))
    ft.Generators.ft_core;
  (* every edge switch connects only to aggs in its own pod *)
  Array.iter
    (fun e ->
      Array.iter
        (fun a ->
          Alcotest.(check int) "same pod" ft.Generators.ft_pod.(e)
            ft.Generators.ft_pod.(a))
        (Graph.succ ft.Generators.ft_graph e))
    ft.Generators.ft_edge

let test_ring_mesh () =
  let r = Generators.ring ~n:8 in
  Alcotest.(check int) "ring links" 8 (Graph.n_links r);
  let m = Generators.full_mesh ~n:7 in
  Alcotest.(check int) "mesh links" 21 (Graph.n_links m);
  Alcotest.(check int) "mesh degree" 6 (Graph.degree m 0)

let test_datacenter_shape () =
  let dc = Generators.datacenter ~clusters:8 ~leaves:16 ~spines:8 ~cores:5 () in
  Alcotest.(check int) "nodes" 197 (Graph.n_nodes dc.Generators.dc_graph);
  Alcotest.(check bool) "connected" true (Graph.is_connected dc.Generators.dc_graph);
  (* leaves attach only within their cluster *)
  let leaf0 = dc.Generators.dc_leaves.(0) in
  Alcotest.(check int) "leaf degree = spines" 8
    (Graph.degree dc.Generators.dc_graph leaf0)

let test_wan_shape () =
  let w = Generators.wan ~extra:1 ~pops:31 ~pop_size:33 ~seed:7 () in
  Alcotest.(check int) "nodes" 1086 (Graph.n_nodes w.Generators.wan_graph);
  Alcotest.(check bool) "connected" true (Graph.is_connected w.Generators.wan_graph)

let test_wan_deterministic () =
  let w1 = Generators.wan ~pops:5 ~pop_size:8 ~seed:3 () in
  let w2 = Generators.wan ~pops:5 ~pop_size:8 ~seed:3 () in
  Alcotest.(check (list (pair int int))) "same edges"
    (Graph.edges w1.Generators.wan_graph)
    (Graph.edges w2.Generators.wan_graph)

let test_random_connected () =
  for seed = 0 to 10 do
    let g = Generators.random_connected ~n:30 ~extra:10 ~seed in
    Alcotest.(check bool) "connected" true (Graph.is_connected g);
    Alcotest.(check int) "nodes" 30 (Graph.n_nodes g)
  done

let test_grid_star () =
  let g = Generators.grid ~rows:3 ~cols:4 in
  Alcotest.(check int) "grid nodes" 12 (Graph.n_nodes g);
  Alcotest.(check int) "grid links" 17 (Graph.n_links g);
  let s = Generators.star ~n:5 in
  Alcotest.(check int) "star links" 4 (Graph.n_links s);
  Alcotest.(check int) "hub degree" 4 (Graph.degree s 0)

let test_fold_and_stats () =
  let g = Generators.ring ~n:4 in
  Alcotest.(check int) "fold_nodes sums ids" 6
    (Graph.fold_nodes g ~init:0 ~f:( + ));
  let s = Format.asprintf "%a" Graph.pp_stats g in
  Alcotest.(check bool) "stats mention counts" true
    (Astring_contains.contains s "nodes=4" && Astring_contains.contains s "links=4")

let test_one_way_edge_link_count () =
  let b = Graph.Builder.create () in
  let a = Graph.Builder.add_node b "a" in
  let c = Graph.Builder.add_node b "c" in
  let d = Graph.Builder.add_node b "d" in
  Graph.Builder.add_edge b a c;
  Graph.Builder.add_link b c d;
  let g = Graph.Builder.build b in
  Alcotest.(check int) "3 directed edges" 3 (Graph.n_edges g);
  Alcotest.(check int) "2 links (one-way counts once)" 2 (Graph.n_links g)

let test_dot_output () =
  let g = Graph.of_links ~n:2 [ (0, 1) ] in
  let dot = Dot.to_string ~name:"t" g in
  Alcotest.(check bool) "mentions link" true
    (Astring_contains.contains dot "0 -- 1")

let test_dot_groups_and_direction () =
  let b = Graph.Builder.create () in
  let a = Graph.Builder.add_node b "a" in
  let c = Graph.Builder.add_node b "c" in
  Graph.Builder.add_edge b a c;
  let g = Graph.Builder.build b in
  let dot = Dot.to_string ~node_group:(fun v -> v) g in
  Alcotest.(check bool) "one-way edge rendered directed" true
    (Astring_contains.contains dot "dir=forward");
  Alcotest.(check bool) "group colors differ" true
    (Astring_contains.contains dot "fillcolor=\"#e6194b\""
    && Astring_contains.contains dot "fillcolor=\"#3cb44b\"")

(* Edge walks read the sorted successor arrays: on random graphs (with
   duplicate and one-way edges) [edges] is the sorted, deduplicated builder
   list, [iter_edges] and the edge ids follow it, and [has_edge] and
   [n_links] agree with it. *)
let prop_edge_walk =
  let compare_edge (u, v) (u', v') =
    match Int.compare u u' with 0 -> Int.compare v v' | d -> d
  in
  QCheck.Test.make ~name:"edges = sorted builder edges" ~count:200
    QCheck.(
      pair (int_range 1 12)
        (small_list (pair (int_bound 11) (int_bound 11))))
    (fun (n, raw) ->
      let raw = List.filter (fun (u, v) -> u <> v && u < n && v < n) raw in
      let b = Graph.Builder.create () in
      for i = 0 to n - 1 do
        ignore (Graph.Builder.add_node b (string_of_int i))
      done;
      List.iter (fun (u, v) -> Graph.Builder.add_edge b u v) raw;
      let g = Graph.Builder.build b in
      let expected = List.sort_uniq compare_edge raw in
      let mem e = List.exists (fun e' -> compare_edge e e' = 0) expected in
      let walked = ref [] in
      Graph.iter_edges g (fun u v -> walked := (u, v) :: !walked);
      let pairs = List.init (n * n) (fun i -> (i / n, i mod n)) in
      Graph.edges g = expected
      && List.rev !walked = expected
      && Graph.n_edges g = List.length expected
      && List.for_all (fun (u, v) -> Graph.has_edge g u v = mem (u, v)) pairs
      && List.for_all2
           (fun i (u, v) -> Graph.edge_index g u v = i)
           (List.init (List.length expected) Fun.id)
           expected
      && List.for_all
           (fun (u, v) -> mem (u, v) || Graph.edge_index g u v = -1)
           pairs
      && Graph.n_links g
         = List.length
             (List.filter (fun (u, v) -> u < v || not (mem (v, u))) expected))

let () =
  Alcotest.run "topology"
    [
      ( "graph",
        [
          Alcotest.test_case "builder" `Quick test_builder_basics;
          Alcotest.test_case "self-loop rejected" `Quick
            test_builder_rejects_self_loop;
          Alcotest.test_case "duplicate edges" `Quick test_duplicate_edges_ignored;
          Alcotest.test_case "succ/pred" `Quick test_succ_pred;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
        ] );
      ( "generators",
        [
          Alcotest.test_case "fattree sizes" `Quick test_fattree_sizes;
          Alcotest.test_case "fattree pods" `Quick test_fattree_pods;
          Alcotest.test_case "ring/mesh" `Quick test_ring_mesh;
          Alcotest.test_case "datacenter" `Quick test_datacenter_shape;
          Alcotest.test_case "wan" `Quick test_wan_shape;
          Alcotest.test_case "wan deterministic" `Quick test_wan_deterministic;
          Alcotest.test_case "random connected" `Quick test_random_connected;
          Alcotest.test_case "grid/star" `Quick test_grid_star;
        ] );
      ( "accessors",
        [
          Alcotest.test_case "fold/stats" `Quick test_fold_and_stats;
          Alcotest.test_case "one-way links" `Quick test_one_way_edge_link_count;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_edge_walk ]);
      ( "dot",
        [
          Alcotest.test_case "output" `Quick test_dot_output;
          Alcotest.test_case "groups/direction" `Quick
            test_dot_groups_and_direction;
        ] );
    ]
