type path = Delivered of int list | Dropped of int list | Looped of int list

let walk ~all ~lookup ~dest src =
  let rec go u path seen =
    if Some u = dest then [ Delivered (List.rev (u :: path)) ]
    else if List.mem u seen then [ Looped (List.rev (u :: path)) ]
    else
      match lookup u with
      | [] -> [ Dropped (List.rev (u :: path)) ]
      | nh :: rest ->
        let nexts = if all then nh :: rest else [ nh ] in
        List.concat_map (fun v -> go v (u :: path) (u :: seen)) nexts
  in
  go src [] []

type outcome = { delivers : bool; drops : bool; loops : bool }

(* Tarjan's algorithm, run on demand from each queried router. A
   component is closed only after every component it forwards into, so
   its outcome is its members' own (destination, dead end, cycle) joined
   with the finished outcomes of the components it leaves for: exact on
   looping relations too, where memoizing per node while an ancestor is
   still open would not be. *)
let outcomes ~n ~lookup ~dest =
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Array.make n false in
  let hops = Array.make n [] in
  let result = Array.make n None in
  let stack = ref [] and counter = ref 0 in
  let rec visit u =
    index.(u) <- !counter;
    low.(u) <- !counter;
    incr counter;
    stack := u :: !stack;
    on_stack.(u) <- true;
    let nhs = if u = dest then [] else lookup u in
    hops.(u) <- nhs;
    List.iter
      (fun v ->
        if index.(v) < 0 then (
          visit v;
          low.(u) <- Int.min low.(u) low.(v))
        else if on_stack.(v) then low.(u) <- Int.min low.(u) index.(v))
      nhs;
    if low.(u) = index.(u) then begin
      let rec pop acc =
        match !stack with
        | v :: rest ->
          stack := rest;
          on_stack.(v) <- false;
          if v = u then v :: acc else pop (v :: acc)
        | [] -> assert false
      in
      let members = pop [] in
      let delivers = ref false and drops = ref false in
      let loops =
        ref (match members with [ v ] -> List.mem v hops.(v) | _ -> true)
      in
      List.iter
        (fun v ->
          if v = dest then delivers := true
          else if hops.(v) = [] then drops := true;
          List.iter
            (fun w ->
              (* members are still unset; every other successor's
                 component is already closed *)
              match result.(w) with
              | Some o ->
                delivers := !delivers || o.delivers;
                drops := !drops || o.drops;
                loops := !loops || o.loops
              | None -> ())
            hops.(v))
        members;
      let o = { delivers = !delivers; drops = !drops; loops = !loops } in
      List.iter (fun v -> result.(v) <- Some o) members
    end
  in
  fun u ->
    if index.(u) < 0 then visit u;
    Option.get result.(u)

let reaches o = o.delivers && (not o.drops) && not o.loops
