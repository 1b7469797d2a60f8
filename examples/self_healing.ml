(* Self-healing compression: repair the abstraction until it is sound
   under failures (lib/repair).

   fault_tolerance.ml shows the caveat: an effective abstraction is
   proven sound for the failure-free control plane, and a single link
   failure can break that (paper §4.5 / §9). This example closes the
   loop instead of merely reporting it — Repair.harden runs the
   standard CEGAR recipe: compress, sweep failure scenarios through the
   soundness check, and on a mismatch pin the disagreeing routers into
   singleton roles and recompress, until a sweep comes back clean.

   Run with: dune exec examples/self_healing.exe *)

let () =
  let ft = Generators.fattree ~k:4 in
  let g = ft.Generators.ft_graph in
  let net = Synthesis.fattree_shortest_path ft in
  let ec = List.hd (Ecs.compute net) in
  let concrete =
    Compile.bgp_srp net ~dest:(Ecs.single_origin ec)
      ~dest_prefix:ec.Ecs.ec_prefix
  in
  let plan = Fault_engine.plan ~k:1 g in

  (* Plain compression first: 20 nodes become 6, and the very first
     single-link failure shows the abstraction lying. *)
  let t = (Bonsai_api.compress_ec_exn net ec).Bonsai_api.abstraction in
  Format.printf "plain compression: %d nodes -> %d abstract nodes@."
    (Graph.n_nodes g) (Abstraction.n_abstract t);
  (match
     (Soundness.sweep t ~concrete ~abstract_:(Abstraction.bgp_srp t) plan)
       .Fault_engine.failure
   with
  | None -> Format.printf "  (unexpectedly sound under k=1)@."
  | Some (sc, _) ->
    Format.printf "  breaks under the single failure %a@."
      (Scenario.pp ~names:(Graph.name g))
      sc);

  (* Now harden: the same compression, inside the repair loop. *)
  let r =
    match Repair.harden ~k:1 net ec with
    | Ok r -> r
    | Error e -> Format.kasprintf failwith "%a" Bonsai_error.pp e
  in
  Format.printf "@.harden --k 1:@.";
  List.iter
    (fun (rl : Repair.round_log) ->
      match rl.Repair.rl_counterexample with
      | None ->
        Format.printf "  round %d: %d abstract nodes, clean sweep over %d \
                       scenarios@."
          rl.Repair.rl_round rl.Repair.rl_abs_nodes rl.Repair.rl_scenarios
      | Some sc ->
        Format.printf
          "  round %d: %d abstract nodes, counterexample %a -> pinned %d@."
          rl.Repair.rl_round rl.Repair.rl_abs_nodes
          (Scenario.pp ~names:(Graph.name g))
          sc
          (List.length rl.Repair.rl_new_pins))
    r.Repair.rounds;
  let t' = r.Repair.result.Bonsai_api.abstraction in
  Format.printf
    "  hardened: %d abstract nodes, sound=%b, %d pins, %d scenario checks \
     (%d cached)@."
    (Abstraction.n_abstract t') r.Repair.sound
    (List.length r.Repair.pins)
    r.Repair.n_scenarios r.Repair.cache_hits;

  (* The result carries a proof obligation we can re-discharge from
     scratch: no scenario up to k=1 distinguishes the two networks. *)
  (match
     (Soundness.sweep t' ~concrete ~abstract_:(Abstraction.bgp_srp t') plan)
       .Fault_engine.failure
   with
  | None -> Format.printf "  re-checked: agrees on every k=1 scenario@."
  | Some _ -> failwith "hardened abstraction still breaks — this is a bug");

  Format.printf
    "@.On this fattree every router is fault-relevant, so the repaired@.";
  Format.printf
    "abstraction is the identity — 'uncompressed but sound' is the@.";
  Format.printf
    "worst case the loop guarantees, not a failure mode. Networks whose@.";
  Format.printf
    "redundancy is confined to part of the topology keep compression@.";
  Format.printf "in the untouched regions. CLI: bonsai harden fattree:4 --k 1@."
