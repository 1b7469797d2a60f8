type mismatch = {
  mis_node : int;
  mis_abs : int;
  concrete_reaches : bool;
  abstract_reaches : bool;
  concrete_stable : bool;
  abstract_stable : bool;
}

let abstract_scenario (t : Abstraction.t) sc =
  Scenario.make
    ~nodes:(List.concat_map (Abstraction.node_image t) sc.Scenario.down_nodes)
    (List.concat_map (Abstraction.link_image t) sc.Scenario.down_links)

(* reachability vector of a re-solved SRP; divergence reaches nothing *)
let solve_reaches ?cache (srp : 'a Srp.t) sc =
  match Fault_engine.run ?cache srp sc with
  | Fault_engine.Stable sol -> (true, fun u -> u = srp.Srp.dest || Solution.reaches sol u)
  | Fault_engine.Disconnected (sol, _) ->
    (true, fun u -> u = srp.Srp.dest || Solution.reaches sol u)
  | Fault_engine.Diverged _ -> (false, fun u -> u = srp.Srp.dest)

let check_all ?concrete_cache ?abstract_cache (t : Abstraction.t)
    ~(concrete : 'a Srp.t) ~(abstract_ : 'b Srp.t) sc =
  let abs_sc = abstract_scenario t sc in
  let concrete_stable, c_reaches =
    solve_reaches ?cache:concrete_cache concrete sc
  in
  let abstract_stable, a_reaches =
    solve_reaches ?cache:abstract_cache abstract_ abs_sc
  in
  let n = Graph.n_nodes concrete.Srp.graph in
  let out = ref [] in
  for u = n - 1 downto 0 do
    if not (Scenario.mem_node sc u) then begin
      let rc = c_reaches u in
      let copies = Abstraction.node_image t u in
      (* any copy agreeing keeps the abstraction defensible: the
         per-solution refinement f_r is free to pick that copy *)
      if not (List.exists (fun a -> a_reaches a = rc) copies) then
        out :=
          {
            mis_node = u;
            mis_abs = Abstraction.f t u;
            concrete_reaches = rc;
            abstract_reaches = a_reaches (Abstraction.f t u);
            concrete_stable;
            abstract_stable;
          }
          :: !out
    end
  done;
  !out

let check ?concrete_cache ?abstract_cache t ~concrete ~abstract_ sc =
  match
    check_all ?concrete_cache ?abstract_cache t ~concrete ~abstract_ sc
  with
  | [] -> None
  | m :: _ -> Some m

let first_break ?concrete_cache ?abstract_cache t ~concrete ~abstract_
    scenarios =
  let fails sc =
    Option.is_some
      (check ?concrete_cache ?abstract_cache t ~concrete ~abstract_ sc)
  in
  List.find_opt fails scenarios
  |> Option.map (fun sc ->
         let minimal = Scenario.shrink fails sc in
         match
           check ?concrete_cache ?abstract_cache t ~concrete ~abstract_
             minimal
         with
         | Some m -> (minimal, m)
         | None -> assert false)
