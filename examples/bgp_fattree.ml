(* Figure 11: the abstraction of a BGP fattree depends on the policy.

   Under shortest-path routing the whole fattree collapses to six abstract
   routers. When the aggregation tier prefers routes learned from the edge
   tier (local-preference 200), middle-tier routers can exhibit several
   forwarding behaviors and the abstraction must keep more of the
   structure — exactly the effect the paper illustrates.

   Run with: dune exec examples/bgp_fattree.exe [-- k] *)

let compress_first_ec net =
  let ec = List.hd (Ecs.compute net) in
  (ec, Bonsai_api.compress_ec_exn net ec)

let report name net =
  let ec, r = compress_first_ec net in
  let t = r.Bonsai_api.abstraction in
  Format.printf "%s (destination %a):@." name Prefix.pp ec.Ecs.ec_prefix;
  Format.printf "  concrete: %d nodes / %d links@."
    (Graph.n_nodes net.Device.graph)
    (Graph.n_links net.Device.graph);
  Format.printf "  abstract: %d nodes / %d links@."
    (Abstraction.n_abstract t)
    (Graph.n_links t.Abstraction.abs_graph);
  (* show the roles Bonsai discovered *)
  Array.iteri
    (fun gid members ->
      Format.printf "    role %d (%d copies): %s@." gid t.Abstraction.copies.(gid)
        (String.concat ", "
           (List.map (Graph.name net.Device.graph)
              (List.filteri (fun i _ -> i < 4) members)
           @ if List.length members > 4 then [ "..." ] else [])))
    t.Abstraction.groups;
  (* verify CP-equivalence on a solved instance *)
  let dest = Ecs.single_origin ec in
  let sol =
    Solver.solve_exn (Compile.bgp_srp net ~dest ~dest_prefix:ec.Ecs.ec_prefix)
  in
  let outcome, _ = Equivalence.check Compile.Bgp t sol in
  Format.printf "  CP-equivalent: %b@.@." outcome.Equivalence.ok

let () =
  let k = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 4 in
  let ft = Generators.fattree ~k in
  report "shortest-path policy" (Synthesis.fattree_shortest_path ft);
  report "middle tier prefers the bottom tier"
    (Synthesis.fattree_prefer_bottom ft)
