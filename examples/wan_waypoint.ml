(* Verifying path properties of a WAN on its compressed form.

   The synthetic WAN runs eBGP/iBGP on its backbone, OSPF inside each PoP
   (redistributed into BGP at the aggregation routers), and static routes
   on some access routers — the paper's §6 multi-protocol setting. We pick
   a destination, compress that equivalence class, and verify reachability
   and waypointing on the small abstract network; CP-equivalence transfers
   the verdicts to the 1086-device concrete network, which we confirm by
   solving it directly.

   Run with: dune exec examples/wan_waypoint.exe *)

let () =
  let wan = Synthesis.wan () in
  let net = wan.Synthesis.net in
  let g = net.Device.graph in
  Format.printf "%s@." wan.Synthesis.description;
  Format.printf "concrete: %d nodes, %d links, %d destination classes@.@."
    (Graph.n_nodes g) (Graph.n_links g) (Ecs.count net);

  (* a destination in PoP 5 *)
  let ec =
    Ecs.compute net
    |> List.find (fun ec -> Prefix.subset ec.Ecs.ec_prefix (Prefix.of_string "10.5.0.0/16"))
  in
  let dest = Ecs.single_origin ec in
  Format.printf "destination class %a rooted at %s@." Prefix.pp
    ec.Ecs.ec_prefix (Graph.name g dest);

  let r = Bonsai_api.compress_ec_exn net ec in
  let t = r.Bonsai_api.abstraction in
  Format.printf "compressed to %d nodes / %d links in %.3fs@.@."
    (Abstraction.n_abstract t)
    (Graph.n_links t.Abstraction.abs_graph)
    r.Bonsai_api.time_s;

  (* Solve the small abstract network and verify properties there. *)
  let abs_sol = Solver.solve_exn (Abstraction.multi_srp t) in
  let src = Graph.find_by_name g "pop12_r20" |> Option.get in
  let asrc = Abstraction.f t src in
  let backbone_abs =
    List.init (Graph.n_nodes g) Fun.id
    |> List.filter (fun v ->
           String.length (Graph.name g v) > 1 && String.sub (Graph.name g v) 0 2 = "bb")
    |> List.map (Abstraction.f t)
    |> List.sort_uniq compare
  in
  Format.printf "on the abstract network:@.";
  Format.printf "  %s reaches the destination: %b@." (Graph.name g src)
    (Properties.reachable abs_sol asrc);
  Format.printf "  traffic crosses the backbone (waypointing): %b@."
    (Properties.waypointed abs_sol ~src:asrc ~waypoints:backbone_abs);
  Format.printf "  abstract path lengths: %s@.@."
    (String.concat ", "
       (List.map string_of_int (Properties.path_lengths abs_sol ~src:asrc)));

  (* Confirm on the concrete network (what CP-equivalence guarantees). *)
  let sol =
    Solver.solve_exn (Compile.multi_srp net ~dest ~dest_prefix:ec.Ecs.ec_prefix)
  in
  let backbone =
    List.init (Graph.n_nodes g) Fun.id
    |> List.filter (fun v ->
           String.length (Graph.name g v) > 1 && String.sub (Graph.name g v) 0 2 = "bb")
  in
  Format.printf "on the concrete network:@.";
  Format.printf "  %s reaches the destination: %b@." (Graph.name g src)
    (Properties.reachable sol src);
  Format.printf "  traffic crosses the backbone (waypointing): %b@."
    (Properties.waypointed sol ~src ~waypoints:backbone);
  let outcome, _ = Equivalence.check Compile.Multi t sol in
  Format.printf "  CP-equivalence verified: %b@." outcome.Equivalence.ok
