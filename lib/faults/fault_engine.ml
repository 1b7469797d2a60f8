type 'a outcome =
  | Stable of 'a Solution.t
  | Disconnected of 'a Solution.t * int list
  | Diverged of 'a Solver.diagnosis

let survives sc ~dest = not (Scenario.mem_node sc dest)

let derive (srp : 'a Srp.t) sc =
  Srp.map_graph srp (Scenario.apply srp.Srp.graph sc) ~dest:srp.Srp.dest

(* Scenarios are normalized (sorted, deduplicated failure sets), so the
   scenario itself is the cache key: two syntactically different failure
   lists naming the same downed set hit the same entry. *)
type 'a cache = {
  tbl : (Scenario.t, 'a outcome) Hashtbl.t;
  mutable hits : int;
}

let cache () = { tbl = Hashtbl.create 64; hits = 0 }
let cache_hits c = c.hits
let cache_size c = Hashtbl.length c.tbl

let solve_scenario ~budget (srp : 'a Srp.t) sc =
  let srp' = derive srp sc in
  match Solver.solve ~budget srp' with
  | Error (`Budget (info, _)) -> raise (Budget.Exhausted info)
  | Error (`Diverged d) -> Diverged d
  | Ok (sol, _) ->
    let n = Graph.n_nodes srp'.Srp.graph in
    let reaches = Solution.reaches sol in
    let stranded = ref [] in
    for u = n - 1 downto 0 do
      if u <> srp'.Srp.dest && (not (Scenario.mem_node sc u))
         && not (reaches u)
      then stranded := u :: !stranded
    done;
    if !stranded = [] then Stable sol else Disconnected (sol, !stranded)

let run ?(budget = Budget.infinite) ?cache (srp : 'a Srp.t) sc =
  match cache with
  | None -> solve_scenario ~budget srp sc
  | Some c -> (
    match Hashtbl.find_opt c.tbl sc with
    | Some outcome ->
      c.hits <- c.hits + 1;
      outcome
    | None ->
      let outcome = solve_scenario ~budget srp sc in
      Hashtbl.replace c.tbl sc outcome;
      outcome)

type plan = { scenarios : Scenario.t list; exhaustive : bool }

type sampling = Sample of int | Past_cap of int

let plan ?(sampling = Past_cap 256) ?(seed = 0) ~k g =
  match sampling with
  | Past_cap _ when Scenario.count ~k g <= 1024 ->
    { scenarios = Scenario.enumerate ~k g; exhaustive = true }
  | Sample samples | Past_cap samples ->
    { scenarios = Scenario.sample ~k ~samples ~seed g; exhaustive = false }

type 'a report = {
  plan : plan;
  outcomes : (Scenario.t * 'a outcome) list;
  n_stable : int;
  n_disconnected : int;
  n_diverged : int;
  n_skipped : int;
  n_cache_hits : int;
  time_s : float;
}

let survey ?(budget = Budget.infinite) ?cache (srp : 'a Srp.t) plan =
  let t0 = Timing.now () in
  let hits0 = match cache with Some c -> c.hits | None -> 0 in
  (* A budget exhaustion mid-survey truncates the scan rather than losing
     the outcomes already computed; the report counts what was skipped. *)
  let outcomes = ref [] in
  (try
     List.iter
       (fun sc ->
         outcomes := (sc, run ~budget ?cache srp sc) :: !outcomes)
       plan.scenarios
   with Budget.Exhausted _ -> ());
  let outcomes = List.rev !outcomes in
  let count p = List.length (List.filter (fun (_, o) -> p o) outcomes) in
  {
    plan;
    outcomes;
    n_stable = count (function Stable _ -> true | _ -> false);
    n_disconnected = count (function Disconnected _ -> true | _ -> false);
    n_diverged = count (function Diverged _ -> true | _ -> false);
    n_skipped = List.length plan.scenarios - List.length outcomes;
    n_cache_hits = (match cache with Some c -> c.hits - hits0 | None -> 0);
    time_s = Timing.now () -. t0;
  }

type 'f search = {
  checked : int;
  failure : (Scenario.t * 'f) option;
  cut : Budget.info option;
}

let search ?(budget = Budget.infinite) ?(phase = "faults") check plan =
  let budgeted sc =
    Budget.check budget ~phase;
    check sc
  in
  let checked = ref 0 in
  let found sc =
    let f = budgeted sc in
    incr checked;
    Option.map (fun f -> (sc, f)) f
  in
  let result failure cut = { checked = !checked; failure; cut } in
  match List.find_map found plan.scenarios with
  | exception Budget.Exhausted info -> result None (Some info)
  | None -> result None None
  | Some ((sc, _) as first) -> (
    (* a budget that runs out while shrinking keeps the failure found *)
    match
      let minimal = Scenario.shrink (fun s -> Option.is_some (budgeted s)) sc in
      (minimal, Option.get (check minimal))
    with
    | shrunk -> result (Some shrunk) None
    | exception Budget.Exhausted info -> result (Some first) (Some info))
