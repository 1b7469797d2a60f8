type stats = { steps : int; updates : int; transfers : int }

type cycle = { period : int; participants : int list }

type verdict =
  | Oscillation of cycle
  | Likely_convergent
  | Inconclusive of int

type 'a diagnosis = {
  diag_sol : 'a Solution.t;
  diag_steps : int;
  diag_trace : (int * 'a option) list;
  diag_verdict : verdict;
}

let trace_cap = 32

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let label_equal (srp : 'a Srp.t) a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> srp.Srp.attr_equal a b
  | _ -> false

(* Post-mortem analysis of an unstable labeling: iterate a deterministic
   synchronous-in-order (Gauss-Seidel) sweep and watch for a repeated label
   vector. The sweep is a function on a finite state space for protocols
   with loop prevention, so a true oscillation must revisit a state; a
   fixed point instead means the labeling is actually stable and only the
   step budget was too small. *)
let diagnose (srp : 'a Srp.t) (labels : 'a option array) ~rounds =
  let g = srp.Srp.graph in
  let n = Graph.n_nodes g in
  let best u =
    let best = ref None in
    Array.iter
      (fun v ->
        match srp.Srp.trans u v labels.(v) with
        | None -> ()
        | Some a -> (
          match !best with
          | None -> best := Some a
          | Some b -> if srp.Srp.compare a b < 0 then best := Some a))
      (Graph.succ g u);
    !best
  in
  let vec_equal a b =
    let ok = ref true in
    for u = 0 to n - 1 do
      if not (label_equal srp a.(u) b.(u)) then ok := false
    done;
    !ok
  in
  (* snaps.(r) is the label vector after r sweeps *)
  let snaps = ref [ Array.copy labels ] (* newest first *) in
  let result = ref None in
  let r = ref 0 in
  while !result = None && !r < rounds do
    incr r;
    let changed = ref false in
    for u = 0 to n - 1 do
      if u <> srp.Srp.dest then begin
        let b = best u in
        if not (label_equal srp labels.(u) b) then begin
          labels.(u) <- b;
          changed := true
        end
      end
    done;
    if not !changed then result := Some Likely_convergent
    else begin
      let snap = Array.copy labels in
      (match
         List.find_index (fun old -> vec_equal old snap) !snaps
       with
      | Some back ->
        (* the state [back + 1] sweeps ago reappeared *)
        let period = back + 1 in
        let window = List.filteri (fun i _ -> i <= back) !snaps in
        let participants =
          List.init n Fun.id
          |> List.filter (fun u ->
                 List.exists
                   (fun old -> not (label_equal srp old.(u) snap.(u)))
                   window)
        in
        result := Some (Oscillation { period; participants })
      | None -> ());
      snaps := snap :: !snaps
    end
  done;
  match !result with Some v -> v | None -> Inconclusive !r

(* The post-drain sweep: every node's successors once, in [Graph.succ]
   order. From the same choices it decides local stability (exactly
   [Solution.node_violation]'s predicate) and collects the forwarding
   edges (exactly [Solution.fwd], in the same order), so neither is
   re-derived from the transfer functions later. *)
let sweep (srp : 'a Srp.t) (labels : 'a option array) =
  let g = srp.Srp.graph in
  let n = Graph.n_nodes g in
  let table = Array.make n [] in
  let stable = ref true in
  for u = 0 to n - 1 do
    let label = labels.(u) in
    let has_choice = ref false and offered = ref false
    and better = ref false and fwd = ref [] in
    Array.iter
      (fun v ->
        match srp.Srp.trans u v labels.(v) with
        | None -> ()
        | Some c -> (
          has_choice := true;
          match label with
          | None -> ()
          | Some a ->
            if srp.Srp.attr_equal c a then offered := true;
            let k = srp.Srp.compare c a in
            if k < 0 then better := true
            else if k = 0 then fwd := (u, v) :: !fwd))
      (Graph.succ g u);
    (match label with Some _ -> table.(u) <- List.rev !fwd | None -> ());
    let ok =
      if u = srp.Srp.dest then
        match label with
        | Some a -> srp.Srp.attr_equal a srp.Srp.init
        | None -> false
      else
        match label with
        | None -> not !has_choice
        | Some _ -> !offered && not !better
    in
    if not ok then stable := false
  done;
  (!stable, table)

let solve ?(seed = 0) ?max_steps ?(budget = Budget.infinite) (srp : 'a Srp.t) =
  let g = srp.Srp.graph in
  let n = Graph.n_nodes g in
  let max_steps =
    match max_steps with Some m -> m | None -> 64 * n * (n + 1)
  in
  (* The classic [max_steps] cutoff is itself a (tick-only) budget; its
     exhaustion means "possibly divergent" and triggers the post-mortem,
     whereas exhaustion of the caller-supplied [budget] means "out of
     resources" and returns the partial labeling as [`Budget]. *)
  let step_budget = Budget.create ~max_ticks:max_steps () in
  let rng = Random.State.make [| seed; 0x50f7 |] in
  let labels : 'a option array = Array.make n None in
  if n > 0 then labels.(srp.Srp.dest) <- Some srp.Srp.init;
  let transfers = ref 0 in
  let counted =
    {
      srp with
      Srp.trans =
        (fun u v l ->
          incr transfers;
          srp.Srp.trans u v l);
    }
  in
  (* Per-node neighbor order decides tie-breaking among equally good
     choices; a seeded shuffle explores different stable solutions. *)
  let nbr_order =
    Array.init n (fun u ->
        let a = Array.copy (Graph.succ g u) in
        if seed <> 0 then shuffle rng a;
        a)
  in
  let best u =
    let best = ref None in
    Array.iter
      (fun v ->
        match counted.Srp.trans u v labels.(v) with
        | None -> ()
        | Some a -> (
          match !best with
          | None -> best := Some a
          | Some b -> if srp.Srp.compare a b < 0 then best := Some a))
      nbr_order.(u);
    !best
  in
  let in_queue = Array.make n false in
  let queue = Queue.create () in
  let push u =
    if u <> srp.Srp.dest && not in_queue.(u) then begin
      in_queue.(u) <- true;
      Queue.add u queue
    end
  in
  let initial = Array.init n Fun.id in
  if seed <> 0 then shuffle rng initial;
  Array.iter push initial;
  let updates = ref 0 in
  (* tail of the update trace, for the divergence diagnosis *)
  let trace = Queue.create () in
  let budget_ok = ref true in
  let interrupted = ref None in
  (try
     while !budget_ok && not (Queue.is_empty queue) do
       let u = Queue.pop queue in
       in_queue.(u) <- false;
       Budget.tick budget ~phase:"solve";
       (match Budget.tick step_budget ~phase:"solve-steps" with
       | () -> ()
       | exception Budget.Exhausted _ -> budget_ok := false);
       if !budget_ok then begin
         let b = best u in
         if not (label_equal srp labels.(u) b) then begin
           labels.(u) <- b;
           incr updates;
           Queue.add (u, b) trace;
           if Queue.length trace > trace_cap then ignore (Queue.pop trace);
           (* Nodes whose choices mention u must re-evaluate. *)
           Array.iter push (Graph.pred g u)
         end
       end
     done
   with Budget.Exhausted info -> interrupted := Some info);
  let steps = Budget.ticks step_budget in
  match !interrupted with
  | Some info -> Error (`Budget (info, Solution.of_labels srp labels))
  | None ->
    let stable, table =
      if !budget_ok then sweep counted labels else (false, [||])
    in
    if stable then
      Ok
        ( Solution.with_forwarding srp labels table,
          { steps; updates = !updates; transfers = !transfers } )
    else begin
      let diag_trace = List.of_seq (Queue.to_seq trace) in
      (* diagnosis mutates a copy; [diag_sol] is the post-sweep labeling *)
      let labels' = Array.copy labels in
      let diag_verdict = diagnose srp labels' ~rounds:64 in
      Error
        (`Diverged
          {
            diag_sol = Solution.of_labels srp labels';
            diag_steps = steps;
            diag_trace;
            diag_verdict;
          })
    end

let pp_verdict ~graph ppf = function
  | Oscillation { period; participants } ->
    Format.fprintf ppf "oscillation of period %d among {%s}" period
      (String.concat ", " (List.map (Graph.name graph) participants))
  | Likely_convergent ->
    Format.fprintf ppf
      "likely convergent (the diagnosis sweep reached a fixed point; raise \
       max_steps)"
  | Inconclusive rounds ->
    Format.fprintf ppf "inconclusive after %d diagnosis rounds" rounds

let pp_diagnosis ppf d =
  Format.fprintf ppf "diverged after %d steps: %a" d.diag_steps
    (pp_verdict ~graph:d.diag_sol.Solution.srp.Srp.graph)
    d.diag_verdict

let solve_exn ?seed ?max_steps ?budget srp =
  match solve ?seed ?max_steps ?budget srp with
  | Ok (s, _) -> s
  | Error (`Diverged d) ->
    Bonsai_error.error
      (Bonsai_error.Divergence (Format.asprintf "%a" pp_diagnosis d))
  | Error (`Budget (info, _)) -> raise (Budget.Exhausted info)

let solutions_sample ?(tries = 16) srp =
  let found = ref [] in
  for seed = 0 to tries - 1 do
    match solve ~seed srp with
    | Ok (s, _) ->
      if not (List.exists (Solution.equal_labels s) !found) then
        found := s :: !found
    | Error _ -> ()
  done;
  List.rev !found

let enumerate_solutions ?(max_nodes = 12) (srp : 'a Srp.t) =
  let g = srp.Srp.graph in
  let n = Graph.n_nodes g in
  if n > max_nodes then
    invalid_arg "Solver.enumerate_solutions: network too large";
  let dest = srp.Srp.dest in
  (* choice.(u) = Some v: u takes its route from v; None: no route *)
  let choice = Array.make n None in
  let found = ref [] in
  let labels_of_choice () =
    (* Follow each node's selection to the destination, failing on cycles
       or dropped transfers. *)
    let labels = Array.make n None in
    if n > 0 then labels.(dest) <- Some srp.Srp.init;
    let state = Array.make n 0 (* 0 unvisited, 1 in progress, 2 done *) in
    let exception Bad in
    let rec resolve u =
      if u = dest then labels.(u)
      else
        match state.(u) with
        | 1 -> raise Bad (* cycle among selections *)
        | 2 -> labels.(u)
        | _ -> (
          state.(u) <- 1;
          let l =
            match choice.(u) with
            | None -> None
            | Some v -> (
              match srp.Srp.trans u v (resolve v) with
              | Some a -> Some a
              | None -> raise Bad (* selected a dropped route *))
          in
          state.(u) <- 2;
          labels.(u) <- l;
          l)
    in
    match
      for u = 0 to n - 1 do
        ignore (resolve u)
      done
    with
    | () -> Some labels
    | exception Bad -> None
  in
  let record () =
    match labels_of_choice () with
    | None -> ()
    | Some labels ->
      let sol = Solution.of_labels srp labels in
      if
        Solution.is_stable sol
        && not (List.exists (Solution.equal_labels sol) !found)
      then found := sol :: !found
  in
  let rec go u =
    if u >= n then record ()
    else if u = dest then go (u + 1)
    else begin
      choice.(u) <- None;
      go (u + 1);
      Array.iter
        (fun v ->
          choice.(u) <- Some v;
          go (u + 1))
        (Graph.succ g u);
      choice.(u) <- None
    end
  in
  (* Static-style spontaneous transfers mean even "no route" nodes need a
     try; the stability filter sorts everything out. *)
  if n > 0 then go 0;
  List.rev !found
