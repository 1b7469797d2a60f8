(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§8) on the synthetic substrates described in DESIGN.md.

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- table1a      -- one artifact
     dune exec bench/main.exe -- --help

   Subcommands: table1a table1b figure11 figure12 batfish-query
   ablation-bdd ablation-uu faults harden incr serve certify micro all.

   Absolute numbers differ from the paper (different hardware, an
   explicit-state analysis client instead of SMT); EXPERIMENTS.md records
   paper-vs-measured values and discusses the shapes. *)

let fail fmt = Format.kasprintf failwith fmt

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* The BENCH_*.json documents and the serve request lines are [Json.t]
   values, printed by [Json.to_string] like every other JSON document. *)
let write_json path v =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string v);
      output_char oc '\n');
  Printf.printf "wrote %s\n%!" path

(* [x] rounded to [digits] decimals, the precision the tables print *)
let fixed digits x =
  let m = 10. ** float_of_int digits in
  Json.Float (Float.round (x *. m) /. m)

let request op fields =
  Json.to_string (Json.Obj (("op", Json.String op) :: fields))

let on_network spec = [ ("network", Json.String spec) ]

(* ------------------------------------------------------------------ *)
(* Table 1: compression results                                        *)
(* ------------------------------------------------------------------ *)

type t1_row = {
  row_name : string;
  nodes : int;
  links : int;
  abs_nodes : float;
  abs_nodes_std : float;
  abs_links : float;
  abs_links_std : float;
  num_ecs : int;
  sampled : int;
  bdd_time : float;
  time_per_ec : float;
}

let t1_header () =
  Printf.printf "%-20s %14s %18s %18s %6s %9s %12s\n" "Topology" "Nodes/Links"
    "Abs. Nodes" "Abs. Links" "ECs" "BDD time" "Time per EC";
  Printf.printf "%s\n" (String.make 112 '-')

let t1_print r =
  let ratio a b = float_of_int a /. max 1.0 b in
  Printf.printf
    "%-20s %6d /%7d %9.1f ±%-6.1f %9.1f ±%-6.1f %6d %8.2fs %10.4fs  (%.1fx/%.1fx%s)\n%!"
    r.row_name r.nodes r.links r.abs_nodes r.abs_nodes_std r.abs_links
    r.abs_links_std r.num_ecs r.bdd_time r.time_per_ec
    (ratio r.nodes r.abs_nodes) (ratio r.links r.abs_links)
    (if r.sampled < r.num_ecs then Printf.sprintf "; %d ECs timed" r.sampled
     else "")

(* Every [k]-th destination class, for sampling large networks. *)
let every k ecs = List.filteri (fun i _ -> i mod k = 0) ecs

let compress_row ?(sample = 64) name (net : Device.network) =
  let ecs = Ecs.compute net in
  let total_ecs = List.length ecs in
  let stride = max 1 (total_ecs / sample) in
  let s =
    Bonsai_api.compress_exn
      ~ecs:(List.filter Ecs.is_single_origin (every stride ecs))
      net
  in
  {
    row_name = name;
    nodes = Graph.n_nodes net.Device.graph;
    links = Graph.n_links net.Device.graph;
    abs_nodes = fst (Bonsai_api.abs_nodes s);
    abs_nodes_std = snd (Bonsai_api.abs_nodes s);
    abs_links = fst (Bonsai_api.abs_links s);
    abs_links_std = snd (Bonsai_api.abs_links s);
    num_ecs = total_ecs;
    sampled = List.length s.Bonsai_api.results;
    bdd_time = s.Bonsai_api.bdd_time_s;
    time_per_ec = Bonsai_api.mean_time_per_ec s;
  }

let table1a () =
  hr "Table 1(a): compression of synthetic networks";
  t1_header ();
  List.iter
    (fun k ->
      let ft = Generators.fattree ~k in
      let net = Synthesis.fattree_shortest_path ft in
      t1_print (compress_row (Printf.sprintf "Fattree (k=%d)" k) net))
    [ 12; 20; 30 ];
  List.iter
    (fun n ->
      t1_print
        (compress_row (Printf.sprintf "Ring (n=%d)" n) (Synthesis.ring_bgp ~n)))
    [ 100; 500; 1000 ];
  List.iter
    (fun n ->
      t1_print
        (compress_row
           (Printf.sprintf "Full mesh (n=%d)" n)
           (Synthesis.mesh_bgp ~n)))
    [ 50; 150; 250 ]

let table1b () =
  hr "Table 1(b): compression of the (synthetic stand-in) real networks";
  let dc = Synthesis.datacenter () in
  let wan = Synthesis.wan () in
  Printf.printf "datacenter: %s\n" dc.Synthesis.description;
  Printf.printf
    "  unique roles: %d semantic (%d with unmatched communities kept)\n"
    (Bonsai_api.roles dc.Synthesis.net)
    (Bonsai_api.roles ~keep_unmatched_comms:true dc.Synthesis.net);
  Printf.printf "  configuration scale: %d lines (%d IOS-style lines)\n"
    (Device.config_lines dc.Synthesis.net)
    (Ios_print.line_count dc.Synthesis.net);
  Printf.printf "wan: %s\n" wan.Synthesis.description;
  Printf.printf "  unique roles: %d\n" (Bonsai_api.roles wan.Synthesis.net);
  Printf.printf "  configuration scale: %d lines (%d IOS-style lines)\n\n"
    (Device.config_lines wan.Synthesis.net)
    (Ios_print.line_count wan.Synthesis.net);
  t1_header ();
  t1_print (compress_row ~sample:128 "Data center (197)" dc.Synthesis.net);
  t1_print (compress_row ~sample:128 "WAN (1086)" wan.Synthesis.net)

(* ------------------------------------------------------------------ *)
(* Figure 11: policy-dependent abstractions of a fattree               *)
(* ------------------------------------------------------------------ *)

let figure11 () =
  hr "Figure 11: fattree abstractions under different policies";
  Printf.printf "%-16s %24s %24s\n" "Fattree" "shortest-path abs."
    "prefer-bottom abs.";
  List.iter
    (fun k ->
      let ft = Generators.fattree ~k in
      let size net =
        let ec = List.hd (Ecs.compute net) in
        let r = Bonsai_api.compress_ec_exn net ec in
        ( Abstraction.n_abstract r.Bonsai_api.abstraction,
          Graph.n_links r.Bonsai_api.abstraction.Abstraction.abs_graph )
      in
      let n1, e1 = size (Synthesis.fattree_shortest_path ft) in
      let n2, e2 = size (Synthesis.fattree_prefer_bottom ft) in
      Printf.printf "k=%-3d (%4d nodes) %12d n /%4d l %14d n /%4d l\n%!" k
        (Graph.n_nodes ft.Generators.ft_graph)
        n1 e1 n2 e2)
    [ 4; 8; 12; 16 ]

(* ------------------------------------------------------------------ *)
(* Figure 12: verification time with and without compression           *)
(* ------------------------------------------------------------------ *)

let fig12_series ~timeout_s name nets =
  Printf.printf "\n%s (timeout %.0fs per point)\n" name timeout_s;
  Printf.printf "%-10s %8s %16s %16s %9s\n" "size" "nodes" "verify concrete"
    "verify + Bonsai" "speedup";
  List.iter
    (fun (label, net) ->
      let c = Reachability.concrete_all_pairs ~timeout_s net in
      let a = Reachability.abstract_all_pairs ~timeout_s net in
      let show (r : Reachability.result) =
        if r.Reachability.timed_out then
          Printf.sprintf "timeout@%dec" r.Reachability.ecs_done
        else Printf.sprintf "%.2fs" r.Reachability.time_s
      in
      let speedup =
        if c.Reachability.timed_out || a.Reachability.timed_out then "-"
        else
          Printf.sprintf "%.1fx"
            (c.Reachability.time_s /. max 1e-6 a.Reachability.time_s)
      in
      if
        (not (c.Reachability.timed_out || a.Reachability.timed_out))
        && c.Reachability.unreachable <> a.Reachability.unreachable
      then fail "figure12: verdicts disagree on %s" label;
      Printf.printf "%-10s %8d %16s %16s %9s\n%!" label
        (Graph.n_nodes net.Device.graph)
        (show c) (show a) speedup)
    nets

let figure12 ?(timeout_s = 60.0) () =
  hr "Figure 12: all-pairs reachability verification time";
  fig12_series ~timeout_s "(a) Fattree"
    (List.map
       (fun k ->
         ( Printf.sprintf "k=%d" k,
           Synthesis.fattree_shortest_path (Generators.fattree ~k) ))
       [ 4; 8; 12; 16; 20 ]);
  fig12_series ~timeout_s "(b) Full mesh"
    (List.map
       (fun n -> (Printf.sprintf "n=%d" n, Synthesis.mesh_bgp ~n))
       [ 10; 50; 100; 150; 200 ]);
  fig12_series ~timeout_s "(c) Ring"
    (List.map
       (fun n -> (Printf.sprintf "n=%d" n, Synthesis.ring_bgp ~n))
       [ 20; 100; 200; 300; 500 ])

(* ------------------------------------------------------------------ *)
(* The Batfish experiment (§8, last paragraph)                         *)
(* ------------------------------------------------------------------ *)

let batfish_query () =
  hr "Batfish/NoD-style query: all flows towards a destination class";
  let run name net =
    let ec = List.hd (Ecs.compute net) in
    let c = Reachability.concrete_flows net ~ec in
    let a = Reachability.abstract_flows net ~ec in
    Printf.printf "%s, destination %s:\n" name
      (Format.asprintf "%a" Ecs.pp ec);
    Printf.printf
      "  without Bonsai: %d sources, %d forwarding paths in %.3fs\n"
      c.Reachability.sources_reaching c.Reachability.total_paths
      c.Reachability.flow_time_s;
    Printf.printf
      "  with Bonsai:    %d roles reaching, %d paths in %.3fs (incl. compression, %.0fx)\n%!"
      a.Reachability.sources_reaching a.Reachability.total_paths
      a.Reachability.flow_time_s
      (c.Reachability.flow_time_s /. max 1e-6 a.Reachability.flow_time_s)
  in
  run "datacenter (197 nodes)" (Synthesis.datacenter ()).Synthesis.net;
  run "fattree k=20 (500 nodes)"
    (Synthesis.fattree_shortest_path (Generators.fattree ~k:20));
  run "fattree k=30 (1125 nodes)"
    (Synthesis.fattree_shortest_path (Generators.fattree ~k:30))

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_bdd () =
  hr "Ablation: semantic (BDD) policy equality vs naive comparison";
  let dc = Synthesis.datacenter () in
  let semantic = Bonsai_api.roles dc.Synthesis.net in
  let naive = Bonsai_api.roles ~keep_unmatched_comms:true dc.Synthesis.net in
  Printf.printf
    "datacenter roles: %d with the refined attribute abstraction\n\
    \                  %d when set-but-never-matched communities are kept\n"
    semantic naive;
  let mean keep =
    let s =
      Bonsai_api.compress_exn ?keep_unmatched_comms:keep
        ~ecs:(every 11 (Ecs.compute dc.Synthesis.net))
        dc.Synthesis.net
    in
    fst (Bonsai_api.abs_nodes s)
  in
  Printf.printf "mean abstract size: %.1f nodes (semantic) vs %.1f (naive)\n%!"
    (mean None) (mean (Some true))

let ablation_uu () =
  hr "Ablation: BGP node splitting (prefs-driven) on vs off";
  (* compress the first class with and without the preference-driven
     splitting *)
  let row label (net : Device.network) =
    let ec = List.hd (Ecs.compute net) in
    let dest = Ecs.single_origin ec in
    let sound = (Bonsai_api.compress_ec_exn net ec).Bonsai_api.abstraction in
    let table = Compile.signature_table net ~dest:ec.Ecs.ec_prefix in
    let edge_key = Compile.edge_key table net.Device.graph in
    let partition, _ = Refine.partition net ~dest ~edge_key ~prefs:(fun _ -> []) in
    let naive =
      Abstraction.make net ~dest ~dest_prefix:ec.Ecs.ec_prefix
        ~universe:sound.Abstraction.universe ~partition ~copies:(fun _ -> 1)
    in
    let (Compile.Model m) = Compile.model net in
    let srp = Compile.srp m net ~dest ~dest_prefix:ec.Ecs.ec_prefix in
    (* the gadget effect is solution-dependent: sample several stable
       solutions and require every one to map *)
    let sols = Solver.solutions_sample ~tries:12 srp in
    let all_ok t =
      List.for_all
        (fun sol -> (fst (Equivalence.check m t sol)).Equivalence.ok)
        sols
    in
    Printf.printf
      "%s splitting on: %3d nodes (CP-equiv %b); off: %3d nodes (CP-equiv %b) [%d solutions]\n%!"
      label (Abstraction.n_abstract sound) (all_ok sound)
      (Abstraction.n_abstract naive) (all_ok naive) (List.length sols)
  in
  let fattree k prefer =
    let ft = Generators.fattree ~k in
    row
      (Printf.sprintf "fattree k=%d %-14s" k
         (if prefer then "prefer-bottom" else "shortest-path"))
      (if prefer then Synthesis.fattree_prefer_bottom ft
       else Synthesis.fattree_shortest_path ft)
  in
  fattree 4 false;
  fattree 4 true;
  fattree 8 true;
  (* and the paper's own gadget (Figure 2), where a single abstract node
     for the three middle routers is provably unsound *)
  let gadget () =
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
                         if v >= 1 && v <= 3 && u = 4 then Some prefer_a
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
  in
  row "Figure 2 gadget     " (gadget ())

(* ------------------------------------------------------------------ *)
(* Fault injection throughput                                          *)
(* ------------------------------------------------------------------ *)

let faults ?samples () =
  hr "Fault injection: re-solving under failure scenarios (k=2)";
  Printf.printf "%-20s %8s %10s %10s %8s %8s %14s\n" "Topology" "links"
    "scenarios" "mode" "disc." "div." "scenarios/sec";
  Printf.printf "%s\n" (String.make 84 '-');
  let row name (net : Device.network) =
    let ec = List.hd (Ecs.compute net) in
    let dest = Ecs.single_origin ec in
    let (Compile.Model m) = Compile.model net in
    let srp = Compile.srp m net ~dest ~dest_prefix:ec.Ecs.ec_prefix in
    let sampling = Option.map (fun n -> Fault_engine.Sample n) samples in
    let plan = Fault_engine.plan ?sampling ~k:2 net.Device.graph in
    let r = Fault_engine.survey srp plan in
    let n = List.length plan.Fault_engine.scenarios in
    Printf.printf "%-20s %8d %10d %10s %8d %8d %14.0f\n%!" name
      (Graph.n_links net.Device.graph)
      n
      (if plan.Fault_engine.exhaustive then "exhaustive" else "sampled")
      r.Fault_engine.n_disconnected r.Fault_engine.n_diverged
      (float_of_int n /. max 1e-9 r.Fault_engine.time_s)
  in
  row "Fattree (k=4)"
    (Synthesis.fattree_shortest_path (Generators.fattree ~k:4));
  row "Fattree (k=8)"
    (Synthesis.fattree_shortest_path (Generators.fattree ~k:8));
  row "Ring (n=50)" (Synthesis.ring_bgp ~n:50);
  row "Full mesh (n=20)" (Synthesis.mesh_bgp ~n:20)

(* ------------------------------------------------------------------ *)
(* Counterexample-guided repair overhead                               *)
(* ------------------------------------------------------------------ *)

let harden () =
  hr "Hardening: fault-sound compression via counterexample-guided repair (k=1)";
  Printf.printf "%-20s %8s %12s %8s %8s %8s %10s %10s %8s\n" "Topology" "nodes"
    "plain abs." "rounds" "cex" "pins" "hard abs." "checks" "time";
  Printf.printf "%s\n" (String.make 100 '-');
  let row name (net : Device.network) =
    let ec = List.hd (Ecs.compute net) in
    let plain =
      Abstraction.n_abstract
        (Bonsai_api.compress_ec_exn net ec).Bonsai_api.abstraction
    in
    let r, dt = Timing.time (fun () -> Repair.harden_exn ~k:1 net ec) in
    assert r.Repair.sound;
    Printf.printf "%-20s %8d %12d %8d %8d %8d %10d %10d %7.2fs\n%!" name
      (Graph.n_nodes net.Device.graph)
      plain
      (List.length r.Repair.rounds)
      r.Repair.n_counterexamples
      (List.length r.Repair.pins)
      (Abstraction.n_abstract r.Repair.result.Bonsai_api.abstraction)
      r.Repair.n_scenarios dt
  in
  row "Fattree (k=4)"
    (Synthesis.fattree_shortest_path (Generators.fattree ~k:4));
  row "Ring (n=20)" (Synthesis.ring_bgp ~n:20);
  row "Ring (n=50)" (Synthesis.ring_bgp ~n:50);
  row "Full mesh (n=10)" (Synthesis.mesh_bgp ~n:10)

(* ------------------------------------------------------------------ *)
(* Incremental recompression (the `bonsai diff`/`watch` engine)        *)
(* ------------------------------------------------------------------ *)

(* Run OSPF as an infrastructure underlay on the core/aggregation tiers
   (cost 1, area 0) so a link-cost change is a real configuration delta.
   The edge routers — the destination originators — stay out of OSPF and
   nothing redistributes, so OSPF carries none of the monitored prefixes
   (Compile.ospf_live is false for every class): dependency tracking must
   prove a cost change irrelevant and reuse every abstraction. *)
let with_ospf (net : Device.network) =
  let g = net.Device.graph in
  let underlay u =
    let n = Graph.name g u in
    not (String.length n >= 4 && String.sub n 0 4 = "edge")
  in
  {
    net with
    Device.routers =
      Array.mapi
        (fun u r ->
          if not (underlay u) then r
          else
            {
              r with
              Device.ospf_links =
                Array.to_list (Graph.succ g u)
                |> List.filter underlay
                |> List.map (fun v -> (v, { Device.cost = 1; area = 0 }));
            })
        net.Device.routers;
  }

type incr_row = {
  ir_delta : string;
  ir_t_full : float;
  ir_t_incr : float;
  ir_t_diff : float;  (* [Delta.diff] from the network before to after *)
  ir_reused : int;
  ir_seeded : int;
  ir_scratch : int;
  ir_hit_rate : float;
}

(* A deterministic stream of single-delta edits. The first is the
   acceptance metric: one OSPF link-cost change, which dependency
   tracking must prove irrelevant to every destination class. *)
let incr_delta_stream rng (net : Device.network) n =
  let g = net.Device.graph in
  let name = Graph.name g in
  let all_edges = Graph.edges g in
  let edges = Array.of_list all_edges in
  let ospf_edges =
    Array.of_list
      (List.filter
         (fun (u, v) ->
           Option.is_some (Device.ospf_link_config net.Device.routers.(u) v)
           && Option.is_some (Device.ospf_link_config net.Device.routers.(v) u))
         all_edges)
  in
  let pick arr = arr.(Random.State.int rng (Array.length arr)) in
  List.init n (fun i ->
      match i mod 4 with
      | 0 | 2 ->
        let u, v = pick ospf_edges in
        Delta.Ospf_cost { node = name u; nbr = name v; cost = 2 + i }
      | 1 ->
        let u, v = pick edges in
        Delta.Acl_set
          {
            node = name u;
            nbr = name v;
            acl =
              Some
                [
                  {
                    Acl.permit = false;
                    prefix = Prefix.of_string "10.255.0.0/24";
                  };
                ];
          }
      | _ ->
        let u, v = pick edges in
        Delta.Route_map_set
          { node = name u; nbr = name v; dir = Delta.Import; rm = None })

let incr_bench ?(k = 8) ?(n_deltas = 10) ~json_path ~assert_speedup () =
  hr "Incremental recompression (the bonsai diff/watch engine)";
  let net = with_ospf (Synthesis.fattree_shortest_path (Generators.fattree ~k)) in
  let g = net.Device.graph in
  let n_ecs = Ecs.count net in
  Printf.printf "fattree k=%d: %d nodes, %d links, %d destination classes\n" k
    (Graph.n_nodes g) (Graph.n_links g) n_ecs;
  let st, t_init =
    Timing.time (fun () ->
        match Incr.init net with
        | Ok st -> st
        | Error e -> fail "incr init: %a" Bonsai_error.pp e)
  in
  Printf.printf "from-scratch init: %.3fs\n%!" t_init;
  let rng = Random.State.make [| 0xb05a1; k |] in
  let deltas = incr_delta_stream rng net n_deltas in
  Printf.printf "%-40s %10s %10s %9s %22s %6s %10s\n" "delta" "full" "incr"
    "speedup" "reused/seeded/scratch" "cache" "diff";
  let rows =
    List.map
      (fun d ->
        let before = Incr.network st in
        let rep =
          match Incr.recompress st [ d ] with
          | Ok r -> r
          | Error e -> fail "incr recompress: %a" Bonsai_error.pp e
        in
        (* the honest baseline: recompressing the *changed* network from
           scratch, every class, fresh universe *)
        let _, t_full =
          Timing.time (fun () -> Bonsai_api.compress_exn (Incr.network st))
        in
        let _, t_diff = Timing.time (fun () -> Delta.diff before (Incr.network st)) in
        let hit_rate =
          let total = rep.Incr.r_cache_hits + rep.Incr.r_cache_misses in
          if total = 0 then 1.0
          else float_of_int rep.Incr.r_cache_hits /. float_of_int total
        in
        let row =
          {
            ir_delta = Delta.to_string d;
            ir_t_full = t_full;
            ir_t_incr = rep.Incr.r_time_s;
            ir_t_diff = t_diff;
            ir_reused = rep.Incr.r_reused;
            ir_seeded = rep.Incr.r_seeded;
            ir_scratch = rep.Incr.r_scratch;
            ir_hit_rate = hit_rate;
          }
        in
        Printf.printf "%-40s %9.4fs %9.4fs %8.1fx %12d/%3d/%3d %5.0f%% %9.6fs\n%!"
          row.ir_delta row.ir_t_full row.ir_t_incr
          (row.ir_t_full /. max 1e-9 row.ir_t_incr)
          row.ir_reused row.ir_seeded row.ir_scratch (100.0 *. hit_rate)
          row.ir_t_diff;
        row)
      deltas
  in
  let speedup r = r.ir_t_full /. max 1e-9 r.ir_t_incr in
  let first = List.hd rows in
  let hits, misses = Incr.cache_stats st in
  Printf.printf "single link-cost delta: %.4fs full vs %.4fs incremental (%.1fx)\n"
    first.ir_t_full first.ir_t_incr (speedup first);
  Printf.printf "signature cache (cumulative): %d hits, %d misses\n%!" hits
    misses;
  let row_json r =
    Json.Obj
      [
        ("delta", Json.String r.ir_delta); ("t_full_s", fixed 6 r.ir_t_full);
        ("t_incr_s", fixed 6 r.ir_t_incr); ("speedup", fixed 2 (speedup r));
        ("t_diff_s", fixed 6 r.ir_t_diff);
        ("reused", Json.Int r.ir_reused); ("seeded", Json.Int r.ir_seeded);
        ("scratch", Json.Int r.ir_scratch);
        ("cache_hit_rate", fixed 3 r.ir_hit_rate);
      ]
  in
  write_json json_path
    (Json.Obj
       [
         ("topology", Json.String "fattree"); ("k", Json.Int k);
         ("nodes", Json.Int (Graph.n_nodes g));
         ("links", Json.Int (Graph.n_links g)); ("ecs", Json.Int n_ecs);
         ("init_time_s", fixed 6 t_init);
         ("single_link_cost_speedup", fixed 2 (speedup first));
         ( "cache",
           Json.Obj [ ("hits", Json.Int hits); ("misses", Json.Int misses) ] );
         ("deltas", Json.List (List.map row_json rows));
       ]);
  match assert_speedup with
  | Some min_s when speedup first < min_s ->
    Printf.eprintf
      "FAIL: single link-cost speedup %.2fx below required %.2fx\n"
      (speedup first) min_s;
    exit 1
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Differential data-plane compilation (bonsai dataplane-diff)         *)
(* ------------------------------------------------------------------ *)

type dp_row = {
  dr_name : string;
  dr_nodes : int;
  dr_classes : int;
  dr_t_full : float;
  dr_t_incr : float;
  dr_reused : int;
  dr_recompiled : int;
  dr_changes : int;
}

(* Full data-plane recompilation vs incremental dataplane-diff on a
   single OSPF link-cost edit.

   Fattree: the OSPF underlay carries no monitored prefix (with_ospf
   above), so the differ must prove the edit irrelevant per class and
   reuse everything — this row is the acceptance metric. WAN (multiwan):
   OSPF redistributes into BGP, making OSPF-liveness a whole-network
   property of every class, so a cost edit honestly recompiles all of
   them; the row is reported for scale, not asserted (DESIGN.md §17). *)
(* The WAN row's network: multiwan with an OSPF underlay on the core
   ring that redistributes into BGP. Redistribution makes OSPF-liveness
   a whole-network property of every destination class, so a core
   link-cost edit honestly dirties all of them — the contrast row to the
   fattree's total reuse. *)
let multiwan_with_ospf ~regions ~region_size =
  let net = (Synthesis.multiwan ~regions ~region_size).Synthesis.net in
  let g = net.Device.graph in
  let core u =
    let n = Graph.name g u in
    String.length n >= 4 && String.sub n 0 4 = "core"
  in
  {
    net with
    Device.routers =
      Array.mapi
        (fun u r ->
          if not (core u) then r
          else
            {
              r with
              Device.ospf_links =
                Array.to_list (Graph.succ g u)
                |> List.filter core
                |> List.map (fun v -> (v, { Device.cost = 1; area = 0 }));
              redistribute = [ Multi.Ospf_into_bgp; Multi.Bgp_into_ospf ];
            })
        net.Device.routers;
  }

let dataplane_bench ?(k = 8) ~json_path ~assert_speedup () =
  hr "Differential data-plane compilation (bonsai dataplane-diff)";
  let row name (old_net : Device.network) =
    let ospf_edge =
      List.find_opt
        (fun (u, v) ->
          Option.is_some (Device.ospf_link_config old_net.Device.routers.(u) v)
          && Option.is_some
               (Device.ospf_link_config old_net.Device.routers.(v) u))
        (Graph.edges old_net.Device.graph)
    in
    match ospf_edge with
    | None -> fail "dataplane bench: %s has no OSPF edge to edit" name
    | Some (u, v) ->
      let g = old_net.Device.graph in
      let d =
        Delta.Ospf_cost
          { node = Graph.name g u; nbr = Graph.name g v; cost = 7 }
      in
      let new_net = Delta.apply old_net [ d ] in
      (* the honest baseline: compile the changed network's entire data
         plane from scratch, as a non-incremental pipeline would *)
      let full, t_full =
        Timing.time (fun () ->
            Dataplane.of_network new_net (Ecs.compute new_net))
      in
      (* warm-state scenario (the serve op): the signature cache already
         exists; the differ proves classes untouched through it *)
      let cache = Sig_cache.create old_net in
      let rep, t_incr =
        Timing.time (fun () ->
            match Dp_diff.run ~cache ~old_net ~new_net [ d ] with
            | Ok rep -> rep
            | Error e -> fail "dataplane diff: %a" Bonsai_error.pp e)
      in
      if rep.Dp_diff.dp_unknown <> [] then
        fail "dataplane bench: %d classes unknown"
          (List.length rep.Dp_diff.dp_unknown);
      let r =
        {
          dr_name = name;
          dr_nodes = Graph.n_nodes g;
          dr_classes = rep.Dp_diff.dp_classes;
          dr_t_full = t_full;
          dr_t_incr = t_incr;
          dr_reused = rep.Dp_diff.dp_reused;
          dr_recompiled = rep.Dp_diff.dp_recompiled;
          dr_changes = List.length rep.Dp_diff.dp_changes;
        }
      in
      Printf.printf
        "%-24s %5d nodes %5d classes %9.4fs full %9.4fs incr %8.1fx \
         %5d reused %5d recompiled %4d changes (%d entries)\n\
         %!"
        r.dr_name r.dr_nodes r.dr_classes r.dr_t_full r.dr_t_incr
        (r.dr_t_full /. max 1e-9 r.dr_t_incr)
        r.dr_reused r.dr_recompiled r.dr_changes
        (Dataplane.n_entries full);
      r
  in
  let ft =
    row
      (Printf.sprintf "fattree (k=%d)" k)
      (with_ospf (Synthesis.fattree_shortest_path (Generators.fattree ~k)))
  in
  let wan =
    row "multiwan (4x10)" (multiwan_with_ospf ~regions:4 ~region_size:10)
  in
  let speedup r = r.dr_t_full /. max 1e-9 r.dr_t_incr in
  let row_json r =
    Json.Obj
      [
        ("topology", Json.String r.dr_name); ("nodes", Json.Int r.dr_nodes);
        ("classes", Json.Int r.dr_classes); ("t_full_s", fixed 6 r.dr_t_full);
        ("t_incr_s", fixed 6 r.dr_t_incr); ("speedup", fixed 2 (speedup r));
        ("reused", Json.Int r.dr_reused);
        ("recompiled", Json.Int r.dr_recompiled);
        ("fib_changes", Json.Int r.dr_changes);
      ]
  in
  write_json json_path
    (Json.Obj
       [
         ("k", Json.Int k);
         ("single_link_cost_speedup", fixed 2 (speedup ft));
         ("rows", Json.List (List.map row_json [ ft; wan ]));
       ]);
  match assert_speedup with
  | Some min_s when speedup ft < min_s ->
    Printf.eprintf
      "FAIL: fattree single link-cost dataplane speedup %.2fx below \
       required %.2fx\n"
      (speedup ft) min_s;
    exit 1
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Resident engine (bonsai serve)                                      *)
(* ------------------------------------------------------------------ *)

(* In-process: drives Serve_engine.handle_line directly, so the numbers
   are the engine's own (dispatch + compression + response rendering),
   without socket noise. The CI soak (scripts/serve_soak.sh) covers the
   transport. *)

let serve_req eng line =
  let resp, _ = Serve_engine.handle_line eng ~queue_depth:0 line in
  (match Json.parse resp with
  | Ok j -> (
    match Json.member "ok" j with
    | Some (Json.Bool true) -> ()
    | _ -> fail "serve bench: request failed: %s" resp)
  | Error e -> fail "serve bench: unparsable response %s: %s" resp e);
  resp

let serve_latency ~fixture =
  (* cold: first compress on a fresh engine (resolve + init + compress);
     warm: the same request against the now-resident state; restored:
     the same request after a checkpoint/restore round-trip into a
     second engine — what a restarted server pays. *)
  let line = request "compress" (on_network fixture) in
  let eng = Serve_engine.create () in
  let cold_resp = ref "" in
  let (), t_cold = Timing.time (fun () -> cold_resp := serve_req eng line) in
  let (), t_warm = Timing.time (fun () -> ignore (serve_req eng line : string)) in
  let ckpt = Filename.temp_file "bonsai-bench" ".ckpt" in
  let saved =
    match Serve_engine.checkpoint eng ~path:ckpt with
    | Ok n -> n
    | Error e -> fail "serve bench: checkpoint: %s" e
  in
  let eng' = Serve_engine.create () in
  (match Serve_engine.restore eng' ~path:ckpt with
  | `Restored n when n = saved -> ()
  | `Restored n -> fail "serve bench: restored %d of %d networks" n saved
  | `Version_skew reason | `Corrupt reason ->
    fail "serve bench: cold restore: %s" reason
  | `Missing -> fail "serve bench: checkpoint vanished");
  let restored_resp = ref "" in
  let (), t_restored =
    Timing.time (fun () -> restored_resp := serve_req eng' line)
  in
  Sys.remove ckpt;
  if not (String.equal !cold_resp !restored_resp) then
    fail "serve bench: warm-restored response differs from cold on %s" fixture;
  Printf.printf "%-12s cold %8.3fs   warm %8.4fs   restored %8.4fs (%.0fx)\n%!"
    fixture t_cold t_warm t_restored (t_cold /. max 1e-9 t_restored);
  (t_cold, t_warm, t_restored)

let serve_bench ?(k = 6) ?(n_requests = 200) ~json_path () =
  hr "Resident engine (bonsai serve)";
  let fixture = Printf.sprintf "fattree:%d" k in
  let eng = Serve_engine.create () in
  let (), t_load =
    Timing.time (fun () ->
        ignore
          (serve_req eng (request "load" (on_network fixture)) : string))
  in
  Printf.printf "%s: cold load %.3fs\n%!" fixture t_load;
  (* a deterministic mixed stream against the warm network: the request
     shapes a monitoring client actually sends *)
  let stream =
    [
      request "compress" (on_network fixture);
      request "compress"
        (on_network fixture @ [ ("ec", Json.String "10.0.0.0/24") ]);
      request "lint" (on_network fixture);
      request "flow" (on_network fixture);
      request "health" [];
      request "stats" [];
    ]
  in
  let (), t_stream =
    Timing.time (fun () ->
        for i = 0 to n_requests - 1 do
          ignore
            (serve_req eng (List.nth stream (i mod List.length stream))
              : string)
        done)
  in
  let rps = float_of_int n_requests /. max 1e-9 t_stream in
  Printf.printf "%d mixed requests in %.3fs: %.0f requests/s\n%!" n_requests
    t_stream rps;
  let ft = serve_latency ~fixture in
  let wan = serve_latency ~fixture:"wan" in
  let dc = serve_latency ~fixture:"datacenter" in
  let latency fixture (cold, warm, restored) =
    Json.Obj
      [
        ("fixture", Json.String fixture); ("cold_s", fixed 6 cold);
        ("warm_s", fixed 6 warm); ("warm_restored_s", fixed 6 restored);
      ]
  in
  write_json json_path
    (Json.Obj
       [
         ( "stream",
           Json.Obj
             [
               ("fixture", Json.String fixture);
               ("requests", Json.Int n_requests); ("total_s", fixed 6 t_stream);
               ("requests_per_s", fixed 1 rps); ("cold_load_s", fixed 6 t_load);
             ] );
         ( "latency",
           Json.List
             [ latency fixture ft; latency "wan" wan; latency "datacenter" dc ]
         );
       ])

(* ------------------------------------------------------------------ *)
(* Certification overhead (bonsai compress --certify)                  *)
(* ------------------------------------------------------------------ *)

(* What --certify costs on top of compress: full compression of every
   class, then the independent sample-audit check over a fresh BDD
   universe — the exact work the CLI flag adds. The gate (CI passes
   --assert-overhead 2.0) covers these two fixtures only, a k-ary
   fattree and the WAN; it says nothing of the datacenter, where the
   checked run costs about 8x the unchecked one (EXPERIMENTS.md "Audit
   level cost"). *)

let certify_bench ?(k = 6) ~json_path ~assert_overhead () =
  hr "Certification overhead (--audit sample)";
  let fixtures =
    [
      ( Printf.sprintf "fattree:%d" k,
        Synthesis.fattree_shortest_path (Generators.fattree ~k) );
      ("wan", (Synthesis.wan ()).Synthesis.net);
    ]
  in
  let rows =
    List.map
      (fun (name, net) ->
        let s, t_compress =
          Timing.time (fun () ->
              match Bonsai_api.compress net with
              | Ok s -> s
              | Error e ->
                fail "certify bench: compress %s: %a" name Bonsai_error.pp e)
        in
        let obligations, t_certify =
          Timing.time (fun () ->
              match Certify.check_summary ~audit:Certify.Sample net s with
              | Certify.Certified { obligations; _ } -> obligations
              | v ->
                fail "certify bench: %s did not certify: %a" name
                  Certify.pp_verdict v)
        in
        let overhead = t_certify /. max 1e-9 t_compress in
        Printf.printf
          "%-12s compress %8.3fs   certify %8.3fs (%5d obligations)   \
           overhead %.2fx\n\
           %!"
          name t_compress t_certify obligations overhead;
        (name, List.length s.Bonsai_api.results, obligations, t_compress,
         t_certify, overhead))
      fixtures
  in
  let row_json (name, ecs, obligations, t_c, t_a, ov) =
    Json.Obj
      [
        ("fixture", Json.String name); ("classes", Json.Int ecs);
        ("obligations", Json.Int obligations); ("compress_s", fixed 6 t_c);
        ("certify_s", fixed 6 t_a); ("overhead", fixed 3 ov);
      ]
  in
  write_json json_path
    (Json.Obj
       [
         ("audit", Json.String "sample");
         ("fixtures", Json.List (List.map row_json rows));
       ]);
  match assert_overhead with
  | None -> ()
  | Some max_ov ->
    List.iter
      (fun (name, _, _, _, _, ov) ->
        if ov >= max_ov then begin
          Printf.eprintf
            "FAIL: %s certification overhead %.2fx is not under %.2fx\n" name
            ov max_ov;
          exit 1
        end)
      rows

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the core kernels                        *)
(* ------------------------------------------------------------------ *)

let micro () =
  hr "Microbenchmarks (Bechamel)";
  let open Bechamel in
  let ft = Generators.fattree ~k:12 in
  let net = Synthesis.fattree_shortest_path ft in
  let ec = List.hd (Ecs.compute net) in
  let dest = Ecs.single_origin ec in
  let universe = Policy_bdd.universe_of_network net in
  let rm : Route_map.t =
    [
      {
        verdict = Permit;
        conds = [ Match_community [ 1; 2 ] ];
        actions = [ Add_community 3; Set_local_pref 350 ];
      };
      { verdict = Permit; conds = []; actions = [] };
    ]
  in
  let mini =
    (* a tiny network whose only policy is [rm], so the BDD universe
       covers exactly the benchmarked map *)
    let g = Graph.of_links ~n:2 [ (0, 1) ] in
    {
      Device.graph = g;
      routers =
        [|
          {
            (Device.default_router "a") with
            Device.bgp_neighbors =
              [ (1, { Device.import_rm = Some rm; export_rm = None; ibgp = false; rel = Device.Rel_unknown }) ];
          };
          Device.default_router "b";
        |];
    }
  in
  let mini_universe =
    Policy_bdd.universe_of_network ~keep_unmatched_comms:true mini
  in
  let (Compile.Model m) = Compile.model net in
  let tests =
    Test.make_grouped ~name:"bonsai"
      [
        Test.make ~name:"encode-route-map"
          (Staged.stage (fun () ->
               Policy_bdd.encode_route_map mini_universe rm
                 ~dest:(Prefix.of_string "10.0.0.0/24")));
        Test.make ~name:"compress-ec-fattree-180"
          (Staged.stage (fun () -> Bonsai_api.compress_ec_exn ~universe net ec));
        Test.make ~name:"solve-fattree-180"
          (Staged.stage (fun () ->
               Solver.solve
                 (Compile.srp m net ~dest ~dest_prefix:ec.Ecs.ec_prefix)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 2.0) () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "%-40s %12.3f ms/run\n" name (est /. 1e6)
      | _ -> Printf.printf "%-40s (no estimate)\n" name)
    results

(* ------------------------------------------------------------------ *)

let all ~timeout_s () =
  table1a ();
  table1b ();
  figure11 ();
  figure12 ~timeout_s ();
  batfish_query ();
  ablation_bdd ();
  ablation_uu ()

let () =
  let usage () =
    prerr_endline
      "usage: bench/main.exe \
       [table1a|table1b|figure11|figure12|batfish-query|ablation-bdd|ablation-uu|faults|harden|incr|dataplane|serve|certify|micro|all] \
       [--timeout SECONDS] [--samples N] [--k K] [--deltas N] \
       [--json FILE] \
       [--assert-speedup MIN] [--assert-overhead MAX]";
    exit 2
  in
  let args = Array.to_list Sys.argv |> List.tl in
  let timeout_s = ref 60.0 in
  let samples = ref None in
  let k = ref None in
  let n_deltas = ref 10 in
  let json_path = ref None in
  let assert_speedup = ref None in
  let assert_overhead = ref None in
  let rec parse cmds = function
    | [] -> List.rev cmds
    | "--timeout" :: v :: rest ->
      (match float_of_string_opt v with
      | Some t -> timeout_s := t
      | None -> usage ());
      parse cmds rest
    | "--samples" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n -> samples := Some n
      | None -> usage ());
      parse cmds rest
    | "--k" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n -> k := Some n
      | None -> usage ());
      parse cmds rest
    | "--deltas" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n -> n_deltas := n
      | None -> usage ());
      parse cmds rest
    | "--json" :: v :: rest ->
      json_path := Some v;
      parse cmds rest
    | "--assert-speedup" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s -> assert_speedup := Some s
      | None -> usage ());
      parse cmds rest
    | "--assert-overhead" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s -> assert_overhead := Some s
      | None -> usage ());
      parse cmds rest
    | "--help" :: _ | "-h" :: _ -> usage ()
    | c :: rest -> parse (c :: cmds) rest
  in
  let cmds = match parse [] args with [] -> [ "all" ] | cs -> cs in
  (* each target has its own default fattree size and output file *)
  let json default = Option.value ~default !json_path in
  List.iter
    (fun cmd ->
      match cmd with
      | "table1a" -> table1a ()
      | "table1b" -> table1b ()
      | "figure11" -> figure11 ()
      | "figure12" -> figure12 ~timeout_s:!timeout_s ()
      | "batfish-query" -> batfish_query ()
      | "ablation-bdd" -> ablation_bdd ()
      | "ablation-uu" -> ablation_uu ()
      | "faults" -> faults ?samples:!samples ()
      | "harden" -> harden ()
      | "incr" ->
        incr_bench ?k:!k ~n_deltas:!n_deltas ~json_path:(json "BENCH_incr.json")
          ~assert_speedup:!assert_speedup ()
      | "dataplane" ->
        dataplane_bench ?k:!k ~json_path:(json "BENCH_dataplane.json")
          ~assert_speedup:!assert_speedup ()
      | "serve" ->
        serve_bench ?k:!k ?n_requests:!samples
          ~json_path:(json "BENCH_serve.json") ()
      | "certify" ->
        certify_bench ?k:!k ~json_path:(json "BENCH_certify.json")
          ~assert_overhead:!assert_overhead ()
      | "micro" -> micro ()
      | "all" -> all ~timeout_s:!timeout_s ()
      | _ -> usage ())
    cmds
