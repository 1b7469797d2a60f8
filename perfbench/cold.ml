(* The cold-compression workloads: wan-cold and dc-certified.

   Untraced, a pass is exactly the library path a user runs:
   [Bonsai_api.compress] over every destination class (what
   `bonsai compress NET --all` does) and, for dc-certified, each class's
   certificate checked by [Certify.check_result ~audit:Sample] against one
   fresh universe and its data plane by [Dp_bisim.check] (what
   `--certify --check-dataplane` adds). The traced run replays the steps of
   [Bonsai_api.compress_ec_exn] as direct calls — universe, edge
   signatures, preference levels, refinement, abstraction — with a span
   around each, and must reproduce the untraced outputs exactly. *)

type fixture = {
  name : string;  (* reference file stem *)
  make : unit -> Device.network;
  certified : bool;  (* run the certify and DP-bisim clients *)
}

let wan =
  { name = "wan"; make = (fun () -> (Synthesis.wan ()).Synthesis.net);
    certified = false }

let datacenter =
  { name = "datacenter";
    make = (fun () -> (Synthesis.datacenter ()).Synthesis.net);
    certified = true }

(* --- output digests --------------------------------------------------- *)

(* Canonical digest of one class's abstraction: the partition with group
   ids renumbered by first member, the copy count of each group, and the
   abstract edges over (group, copy) labels. Independent of the id
   history of the refinement, so any implementation that computes the
   same coarsest partition and abstract topology matches. *)
let digest (a : Abstraction.t) =
  let canon = Array.make (Array.length a.Abstraction.groups) (-1) in
  let next = ref 0 in
  Array.iter
    (fun g ->
      if canon.(g) < 0 then begin
        canon.(g) <- !next;
        incr next
      end)
    a.Abstraction.group_of;
  let b = Buffer.create 4096 in
  Array.iter (fun g -> Printf.bprintf b "%d," canon.(g)) a.Abstraction.group_of;
  Buffer.add_char b '|';
  let by_canon = Array.make !next 0 in
  Array.iteri
    (fun g c -> if c >= 0 then by_canon.(c) <- a.Abstraction.copies.(g))
    canon;
  Array.iter (fun c -> Printf.bprintf b "%d," c) by_canon;
  Buffer.add_char b '|';
  let label x =
    let g = a.Abstraction.group_of_abs.(x) in
    (canon.(g), x - a.Abstraction.abs_of_group.(g))
  in
  Graph.edges a.Abstraction.abs_graph
  |> List.map (fun (x, y) -> (label x, label y))
  |> List.sort compare
  |> List.iter (fun ((g, c), (h, d)) -> Printf.bprintf b "%d.%d-%d.%d," g c h d);
  Digest.to_hex (Digest.string (Buffer.contents b))

let prefix_key (ec : Ecs.ec) = Prefix.to_string ec.Ecs.ec_prefix

(* Read from and written to the checkout root's perfbench directory. *)
let reference_path fx = Filename.concat "perfbench/reference" (fx.name ^ ".digests")

let read_reference path =
  let tbl = Hashtbl.create 2048 in
  if Sys.file_exists path then begin
    let ic = open_in path in
    (try
       while true do
         match String.split_on_char ' ' (input_line ic) with
         | [ p; d ] -> Hashtbl.replace tbl p d
         | _ -> ()
       done
     with End_of_file -> ());
    close_in ic
  end;
  tbl

(* A result with one member moved to another group: the negative case
   the output check must count as a failure. [None] when the partition
   has no group with a non-destination member to move. *)
let corrupt (r : Bonsai_api.ec_result) =
  let a = r.Bonsai_api.abstraction in
  let groups = a.Abstraction.groups in
  let dest_group = a.Abstraction.group_of.(a.Abstraction.dest) in
  let movable g =
    g <> dest_group && List.length groups.(g) >= 2
  in
  let n = Array.length groups in
  match List.find_opt movable (List.init n Fun.id) with
  | None -> None
  | Some g ->
    let target = if g = 0 then 1 else 0 in
    let x = List.nth groups.(g) (List.length groups.(g) - 1) in
    let groups = Array.copy groups in
    groups.(g) <- List.filter (fun y -> y <> x) groups.(g);
    groups.(target) <- List.sort Int.compare (x :: groups.(target));
    let group_of = Array.copy a.Abstraction.group_of in
    group_of.(x) <- target;
    Some
      { r with
        Bonsai_api.abstraction = { a with Abstraction.groups; group_of } }

(* --- one class's outcome ---------------------------------------------- *)

type outcome = {
  o_prefix : string;
  o_digest : string;
  o_degraded : bool;
  o_certified : int option;  (* obligations when certified *)
  o_traces : int option;  (* DP-bisim traces when equivalent *)
  o_latency_s : float;
  o_nodes : int;
}

let certify_ok = function
  | Certify.Certified { obligations; _ } -> Some obligations
  | Certify.Refuted _ | Certify.Audit_incomplete _ -> None

let bisim_ok = function
  | Dp_bisim.Equivalent { traces; _ } -> Some traces
  | Dp_bisim.Refuted _ | Dp_bisim.Incomplete _ -> None

(* A class fails on a degraded result, a refuted certificate, a DP-bisim
   verdict other than Equivalent, or a digest that differs from the
   reference. *)
let fails ~certified ~reference o =
  o.o_degraded
  || (match Hashtbl.find_opt reference o.o_prefix with
     | Some d -> not (String.equal d o.o_digest)
     | None -> true)
  || (certified && (Option.is_none o.o_certified || Option.is_none o.o_traces))

(* Certify and DP-bisim clients over one class. *)
let clients ~cert_universe ~protocol net r =
  let cert =
    Certify.check_result ~universe:cert_universe ~audit:Certify.Sample net r
  in
  let bisim = Dp_bisim.check ~protocol net [ r ] in
  (certify_ok cert, bisim_ok bisim)

(* --- untraced pass ---------------------------------------------------- *)

(* One pass: every class compressed, then (dc-certified) each class's
   clients, in class order as the CLI runs them. Returns the outcomes, the
   results and the wall time of the pass. *)
let pass fx net =
  let t0 = Timing.now () in
  let summary =
    match Bonsai_api.compress net with
    | Ok s -> s
    | Error e -> failwith (Bonsai_error.to_string e)
  in
  let results = Array.of_list summary.Bonsai_api.results in
  let client_out = Array.make (Array.length results) (None, None, 0.0) in
  if fx.certified then begin
    let cert_universe = Policy_bdd.universe_of_network net in
    let protocol = Dataplane.detect_protocol net in
    Array.iteri
      (fun i r ->
        let (c, b), dt = Timing.time (fun () -> clients ~cert_universe ~protocol net r) in
        client_out.(i) <- (c, b, dt))
      results
  end;
  let wall = Timing.now () -. t0 in
  let outcomes =
    Array.mapi
      (fun i (r : Bonsai_api.ec_result) ->
        let c, b, dt = client_out.(i) in
        {
          o_prefix = prefix_key r.Bonsai_api.ec;
          o_digest = digest r.Bonsai_api.abstraction;
          o_degraded = r.Bonsai_api.degraded;
          o_certified = c;
          o_traces = b;
          o_latency_s = r.Bonsai_api.time_s +. dt;
          o_nodes = Abstraction.n_abstract r.Bonsai_api.abstraction;
        })
      results
  in
  (outcomes, results, wall)

(* --- traced replay ---------------------------------------------------- *)

type layer_counts = {
  mutable iterations : int;
  mutable splits : int;
  mutable signatures : int;
  mutable abs_links : int;
}

(* Replays [Bonsai_api.compress_ec_exn] step by step over the classes, a
   span around each layer call, and returns the outcomes in class
   order. *)
let replay fx spans net =
  let sp name id f = Span.record spans ~name ~id f in
  let counts = { iterations = 0; splits = 0; signatures = 0; abs_links = 0 } in
  let t0 = Timing.now () in
  let universe =
    sp "policy_bdd.universe" (-1) (fun () -> Policy_bdd.universe_of_network net)
  in
  let ecs =
    sp "ecs.compute" (-1) (fun () -> Ecs.compute net)
    |> List.filter (fun ec -> List.length ec.Ecs.ec_origins = 1)
    |> Array.of_list
  in
  let cert =
    if fx.certified then
      Some
        ( sp "policy_bdd.universe" (-2) (fun () ->
              Policy_bdd.universe_of_network net),
          Dataplane.detect_protocol net )
    else None
  in
  let g = net.Device.graph in
  let n = Graph.n_nodes g in
  let results =
    Array.mapi
      (fun i ec ->
        let c0 = Timing.now () in
        let dest = Ecs.single_origin ec in
        let _, signature =
          sp "compile.signatures" i (fun () ->
              let u, s =
                Compile.edge_signatures ~universe net ~dest:ec.Ecs.ec_prefix
              in
              Graph.iter_edges g (fun a b ->
                  ignore (s a b : Compile.edge_signature);
                  counts.signatures <- counts.signatures + 1);
              (u, s))
        in
        let prefs_of =
          sp "prefs.effective" i (fun () ->
              Array.init n (Bonsai_api.effective_prefs net ec))
        in
        let prefs u = prefs_of.(u) in
        let live_self u v = (signature u v).Compile.sig_static in
        let partition, stats =
          sp "refine.partition" i (fun () ->
              Refine.find_partition net ~dest ~live_self ~signature ~prefs)
        in
        let copies m =
          let cls = Union_split_find.find partition m in
          List.length
            (Refine.group_prefs ~prefs (Union_split_find.members partition cls))
        in
        let abstraction =
          sp "abstraction.make" i (fun () ->
              Abstraction.make net ~dest ~dest_prefix:ec.Ecs.ec_prefix ~universe
                ~partition ~copies)
        in
        counts.iterations <- counts.iterations + stats.Refine.iterations;
        counts.splits <- counts.splits + stats.Refine.splits;
        counts.abs_links <-
          counts.abs_links + Graph.n_links abstraction.Abstraction.abs_graph;
        let r =
          { Bonsai_api.ec; abstraction; refine_stats = stats; time_s = 0.0;
            degraded = false }
        in
        let compress_s = Timing.now () -. c0 in
        let certified, traces, client_s =
          match cert with
          | None -> (None, None, 0.0)
          | Some (cert_universe, protocol) ->
            let c1 = Timing.now () in
            let c =
              sp "certify.check" i (fun () ->
                  Certify.check_result ~universe:cert_universe
                    ~audit:Certify.Sample net r)
            in
            let b = sp "dp_bisim.check" i (fun () -> Dp_bisim.check ~protocol net [ r ]) in
            (certify_ok c, bisim_ok b, Timing.now () -. c1)
        in
        (ec, abstraction, certified, traces, compress_s +. client_s))
      ecs
  in
  let wall = Timing.now () -. t0 in
  let outcomes =
    Array.map
      (fun (ec, abstraction, certified, traces, latency) ->
        {
          o_prefix = prefix_key ec;
          o_digest = digest abstraction;
          o_degraded = false;
          o_certified = certified;
          o_traces = traces;
          o_latency_s = latency;
          o_nodes = Abstraction.n_abstract abstraction;
        })
      results
  in
  let bdd =
    universe.Policy_bdd.man
    :: (match cert with Some (u, _) -> [ u.Policy_bdd.man ] | None -> [])
    |> List.map Bdd.stats
  in
  (outcomes, counts, bdd, wall)

(* --- the workload ----------------------------------------------------- *)

let same_outputs a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         String.equal x.o_prefix y.o_prefix
         && String.equal x.o_digest y.o_digest
         && x.o_certified = y.o_certified
         && x.o_traces = y.o_traces)
       a b

let write_reference fx =
  let net = fx.make () in
  let outcomes, _, _ = pass { fx with certified = false } net in
  let path = reference_path fx in
  let oc = open_out path in
  Array.iter (fun o -> Printf.fprintf oc "%s %s\n" o.o_prefix o.o_digest) outcomes;
  close_out oc;
  Printf.printf "wrote %s (%d classes)\n" path (Array.length outcomes)

let run fx ~seed ~seconds ~trace ~trace_out =
  (* Set-up is generating the network. *)
  let setup_before, net = Report.time_reps 8 fx.make in
  let reference = read_reference (reference_path fx) in
  (* Negative case: one member of a class moved to another group must
     fail. The seed picks the class: the first one at or after a seeded
     position whose partition has a member to move. *)
  let negative_check outcomes results =
    let n = Array.length results in
    let start = Random.State.int (Random.State.make [| seed |]) n in
    match
      List.find_map
        (fun k ->
          let i = (start + k) mod n in
          Option.map (fun bad -> (i, bad)) (corrupt results.(i)))
        (List.init n Fun.id)
    with
    | None -> false
    | Some (i, bad) ->
      let o = outcomes.(i) in
      let cert, traces =
        if fx.certified then
          clients
            ~cert_universe:(Policy_bdd.universe_of_network net)
            ~protocol:(Dataplane.detect_protocol net) net bad
        else (o.o_certified, o.o_traces)
      in
      fails ~certified:fx.certified ~reference
        { o with o_digest = digest bad.Bonsai_api.abstraction;
          o_certified = cert; o_traces = traces }
  in
  (* Whole passes until the measured time reaches [seconds]; only the
     outcomes are kept, so a pass's results are garbage once checked. *)
  let first, results, first_wall = pass fx net in
  let negative_detected = negative_check first results in
  let rec more acc =
    if List.fold_left (fun t (_, w) -> t +. w) 0.0 acc >= seconds then List.rev acc
    else
      let outcomes, _, wall = pass fx net in
      more ((outcomes, wall) :: acc)
  in
  let runs = more [ (first, first_wall) ] in
  let setup_after, _ = Report.time_reps 7 fx.make in
  let setup_s = Report.median (setup_before @ setup_after) in
  let outcomes = Array.concat (List.map fst runs) in
  let attempted = Array.length outcomes in
  let failed =
    Array.fold_left
      (fun acc o ->
        if fails ~certified:fx.certified ~reference o then acc + 1 else acc)
      0 outcomes
  in
  let wall = List.fold_left (fun t (_, w) -> t +. w) 0.0 runs in
  let pass_wall = wall /. float_of_int (List.length runs) in
  let latencies_ms =
    Array.to_list (Array.map (fun o -> o.o_latency_s *. 1000.0) outcomes)
  in
  let routers = Graph.n_nodes net.Device.graph in
  let mean_nodes =
    float_of_int (Array.fold_left (fun acc o -> acc + o.o_nodes) 0 first)
    /. float_of_int (Array.length first)
  in
  let e2e =
    [
      ("setup_s", setup_s);
      ("ops_per_s", float_of_int attempted /. wall);
      ("op_p50_ms", Report.percentile latencies_ms 0.5);
      ("op_p90_ms", Report.percentile latencies_ms 0.9);
      ("compression_ratio", float_of_int routers /. mean_nodes);
      ("peak_heap_mb", Report.peak_heap_mb ());
    ]
  in
  let lines =
    [
      Printf.sprintf
        "%s: %d routers, %d classes per pass, passes of %s s; one process, \
         one domain, closed loop with one caller, in-process calls (no \
         transport)"
        fx.name routers (Array.length first)
        (String.concat ", " (List.map (fun (_, w) -> Printf.sprintf "%.3f" w) runs));
      Printf.sprintf "failure_ratio %.6f (%d of %d classes failed)"
        (Report.share failed attempted) failed attempted;
      Printf.sprintf "latency samples %d (one per class and pass)" attempted;
      Printf.sprintf "negative check (one member moved): %s"
        (if negative_detected then "counted as a failure" else "NOT DETECTED");
    ]
  in
  let layers, consistent, trace_lines =
    if not trace then ([], true, [])
    else begin
      let spans = Span.create () in
      let traced, counts, bdd, traced_wall = replay fx spans net in
      Option.iter (Span.write_chrome spans) trace_out;
      let consistent = same_outputs traced first in
      let sum f = List.fold_left (fun acc s -> acc + f s) 0 bdd in
      let total f = float_of_int (Array.fold_left (fun acc o -> acc + f o) 0 traced) in
      let hits = sum (fun s -> s.Bdd.apply_hits) in
      let misses = sum (fun s -> s.Bdd.apply_misses) in
      let layer_names =
        [ "policy_bdd.universe"; "ecs.compute"; "compile.signatures";
          "prefs.effective"; "refine.partition"; "abstraction.make";
          "certify.check"; "dp_bisim.check" ]
      in
      let spans_total =
        List.fold_left (fun acc n -> acc +. Span.time spans n) 0.0 layer_names
      in
      let t = Span.time spans in
      ( [
          ("refine.partition_s", t "refine.partition");
          ("refine.iterations", float_of_int counts.iterations);
          ("refine.splits", float_of_int counts.splits);
          ("refine.alloc_mw", Span.alloc_mw spans "refine.partition");
          ("compile.signatures_s", t "compile.signatures");
          ("compile.signatures_n", float_of_int counts.signatures);
          ("compile.signatures_alloc_mw", Span.alloc_mw spans "compile.signatures");
          ("prefs.effective_s", t "prefs.effective");
          ("abstraction.make_s", t "abstraction.make");
          ("abstraction.nodes", total (fun o -> o.o_nodes));
          ("abstraction.links", float_of_int counts.abs_links);
          ("abstraction.alloc_mw", Span.alloc_mw spans "abstraction.make");
          ("policy_bdd.universe_s", t "policy_bdd.universe");
          ("ecs.compute_s", t "ecs.compute");
          ("bdd.nodes", float_of_int (sum (fun s -> s.Bdd.nodes)));
          ("bdd.apply_misses", float_of_int misses);
          ("bdd.apply_hit_ratio", Report.share hits (hits + misses));
          ("bdd.ite_misses", float_of_int (sum (fun s -> s.Bdd.ite_misses)));
          ("certify.check_s", t "certify.check");
          ("certify.obligations", total (fun o -> Option.value o.o_certified ~default:0));
          ("dp_bisim.check_s", t "dp_bisim.check");
          ("dp_bisim.traces", total (fun o -> Option.value o.o_traces ~default:0));
          ("trace.overhead_s", traced_wall -. pass_wall);
          ("trace.residual_s", pass_wall -. spans_total);
          ("trace.untraced_s", pass_wall);
          ("trace.traced_s", traced_wall);
        ],
        consistent,
        [ Printf.sprintf "traced replay %s the untraced outputs"
            (if consistent then "reproduces" else "DIFFERS FROM") ] )
    end
  in
  List.iter print_endline (lines @ trace_lines);
  ( negative_detected && consistent,
    attempted,
    failed,
    e2e,
    layers @ [ ("failure_ratio", Report.share failed attempted) ] )
