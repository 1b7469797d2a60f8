(* Figures 2, 3 and 9: BGP loop prevention forces node splitting.

   Three middle routers b1, b2, b3 sit between the destination d and a
   router a, and prefer routes learned from a (local-preference 200).
   Because a's own route goes through one of the b's, that b's preferred
   route is rejected by loop prevention: despite identical configurations,
   one b behaves differently from the other two. Merging all three into a
   single abstract node (Figure 2b) would create a forwarding loop; Bonsai
   instead splits the abstract node into two copies (Figure 3c), bounded
   by the number of local-preference levels (Theorem 4.4).

   Run with: dune exec examples/bgp_split.exe *)

let network () =
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

let () =
  let net = network () in
  let names = [| "d"; "b1"; "b2"; "b3"; "a" |] in
  let ec = List.hd (Ecs.compute net) in
  let r = Bonsai_api.compress_ec_exn net ec in
  let t = r.Bonsai_api.abstraction in
  Format.printf "concrete: 5 nodes, 6 links; abstract: %d nodes, %d links@.@."
    (Abstraction.n_abstract t)
    (Graph.n_links t.Abstraction.abs_graph);
  Array.iteri
    (fun gid members ->
      Format.printf "role %d: {%s} split into %d abstract node(s)@." gid
        (String.concat ", " (List.map (fun v -> names.(v)) members))
        t.Abstraction.copies.(gid))
    t.Abstraction.groups;

  (* The gadget has several stable solutions depending on message timing:
     each b can end up as the one routing directly. Bonsai's abstraction
     accounts for all of them. *)
  let srp = Compile.bgp_srp net ~dest:0 ~dest_prefix:ec.Ecs.ec_prefix in
  let sols = Solver.solutions_sample ~tries:24 srp in
  Format.printf "@.%d distinct stable solutions found; checking each:@."
    (List.length sols);
  List.iter
    (fun sol ->
      let direct =
        List.filter (fun b -> List.exists (fun (_, v) -> v = 0) (Solution.fwd sol b))
          [ 1; 2; 3 ]
      in
      let outcome, _ = Equivalence.check Compile.Bgp t sol in
      Format.printf "  down-routers {%s}: CP-equivalent = %b@."
        (String.concat ", " (List.map (fun v -> names.(v)) direct))
        outcome.Equivalence.ok)
    sols;

  (* Show what goes wrong without splitting: the naive one-node-per-role
     abstraction of Figure 2(b) cannot map any of these solutions. *)
  let _, signature = Compile.edge_signatures net ~dest:ec.Ecs.ec_prefix in
  let partition, _ =
    Refine.find_partition net ~dest:0 ~signature ~prefs:(fun _ -> [])
  in
  let naive =
    Abstraction.make net ~dest:0 ~dest_prefix:ec.Ecs.ec_prefix
      ~universe:t.Abstraction.universe ~partition ~copies:(fun _ -> 1)
  in
  let sol = List.hd sols in
  let outcome, _ = Equivalence.check Compile.Bgp naive sol in
  Format.printf
    "@.naive abstraction (no splitting, Figure 2b): CP-equivalent = %b@."
    outcome.Equivalence.ok;
  List.iter (Format.printf "  reason: %s@.") outcome.Equivalence.errors
