type t =
  | False
  | True
  | Node of { id : int; v : int; lo : t; hi : t }

let node_id = function False -> 0 | True -> 1 | Node n -> n.id

module Unique = Hashtbl.Make (struct
  type key = int * int * int (* var, lo id, hi id *)
  type t = key

  let equal (a1, b1, c1) (a2, b2, c2) = a1 = a2 && b1 = b2 && c1 = c2
  let hash (a, b, c) = (a * 0x9e3779b1) lxor (b * 0x85ebca77) lxor (c * 0xc2b2ae3d)
end)

module Memo1 = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x * 0x9e3779b1
end)

module Memo2 = Hashtbl.Make (struct
  type t = int * int

  let equal (a1, b1) (a2, b2) = a1 = a2 && b1 = b2
  let hash (a, b) = (a * 0x9e3779b1) lxor (b * 0x85ebca77)
end)

module Memo3 = Hashtbl.Make (struct
  type t = int * int * int

  let equal (a1, b1, c1) (a2, b2, c2) = a1 = a2 && b1 = b2 && c1 = c2
  let hash (a, b, c) = (a * 0x9e3779b1) lxor (b * 0x85ebca77) lxor (c * 0xc2b2ae3d)
end)

type man = {
  unique : t Unique.t;
  mutable next_id : int;
  not_memo : t Memo1.t;
  and_memo : t Memo2.t;
  or_memo : t Memo2.t;
  xor_memo : t Memo2.t;
  ite_memo : t Memo3.t;
  restrict_memo : t Memo3.t; (* node id, var, (0|1) *)
  exists_memo : t Memo2.t; (* node id, generation of quantified-set *)
  shift_memo : t Memo2.t;
  mutable quant_gen : int; (* distinguishes successive exists/forall calls *)
  mutable quant_vars : (int, unit) Hashtbl.t;
  mutable budget : Budget.t;
  mutable node_cap : int; (* max unique-table nodes; max_int = unbounded *)
  mutable apply_hits : int;
  mutable apply_misses : int;
  mutable ite_hits : int;
  mutable ite_misses : int;
}

let man () =
  let cache_size = 4096 in
  {
    unique = Unique.create cache_size;
    next_id = 2;
    not_memo = Memo1.create cache_size;
    and_memo = Memo2.create cache_size;
    or_memo = Memo2.create cache_size;
    xor_memo = Memo2.create cache_size;
    ite_memo = Memo3.create cache_size;
    restrict_memo = Memo3.create cache_size;
    exists_memo = Memo2.create cache_size;
    shift_memo = Memo2.create cache_size;
    quant_gen = 0;
    quant_vars = Hashtbl.create 8;
    budget = Budget.infinite;
    node_cap = max_int;
    apply_hits = 0;
    apply_misses = 0;
    ite_hits = 0;
    ite_misses = 0;
  }


let set_budget m b = m.budget <- b
let set_node_cap m cap =
  m.node_cap <- (match cap with Some c -> c | None -> max_int)

let phase = "bdd"

let clear_caches m =
  Memo1.reset m.not_memo;
  Memo2.reset m.and_memo;
  Memo2.reset m.or_memo;
  Memo2.reset m.xor_memo;
  Memo3.reset m.ite_memo;
  Memo3.reset m.restrict_memo;
  Memo2.reset m.exists_memo;
  Memo2.reset m.shift_memo

let num_nodes m = Unique.length m.unique

let bot = False
let top = True

let mk m v ~lo ~hi =
  if lo == hi then lo
  else
    let key = (v, node_id lo, node_id hi) in
    match Unique.find_opt m.unique key with
    | Some n -> n
    | None ->
      if Unique.length m.unique >= m.node_cap then
        raise
          (Budget.Exhausted
             (Budget.info m.budget ~phase
                ~note:
                  (Printf.sprintf "unique-table node cap %d reached"
                     m.node_cap)
                ()));
      let n = Node { id = m.next_id; v; lo; hi } in
      m.next_id <- m.next_id + 1;
      Unique.replace m.unique key n;
      n

let var m i =
  if i < 0 then invalid_arg "Bdd.var: negative variable";
  mk m i ~lo:False ~hi:True

let nvar m i =
  if i < 0 then invalid_arg "Bdd.nvar: negative variable";
  mk m i ~lo:True ~hi:False

let rec not_ m b =
  match b with
  | False -> True
  | True -> False
  | Node { id; v; lo; hi } -> (
    match Memo1.find_opt m.not_memo id with
    | Some r -> r
    | None ->
      Budget.tick m.budget ~phase;
      let r = mk m v ~lo:(not_ m lo) ~hi:(not_ m hi) in
      Memo1.replace m.not_memo id r;
      r)

(* Generic binary apply with per-operation memo table and short-circuit
   rules supplied by the caller. *)
let apply m memo ~commutative ~short f =
  let rec go a b =
    match short a b with
    | Some r -> r
    | None -> (
      let ia = node_id a and ib = node_id b in
      let key = if commutative && ib < ia then (ib, ia) else (ia, ib) in
      match Memo2.find_opt memo key with
      | Some r ->
        m.apply_hits <- m.apply_hits + 1;
        r
      | None ->
        m.apply_misses <- m.apply_misses + 1;
        Budget.tick m.budget ~phase;
        let r =
          match (a, b) with
          | Node na, Node nb ->
            if na.v = nb.v then mk m na.v ~lo:(go na.lo nb.lo) ~hi:(go na.hi nb.hi)
            else if na.v < nb.v then mk m na.v ~lo:(go na.lo b) ~hi:(go na.hi b)
            else mk m nb.v ~lo:(go a nb.lo) ~hi:(go a nb.hi)
          | (False | True), _ | _, (False | True) ->
            (* terminal-terminal pairs are always short-circuited *)
            f a b
        in
        Memo2.replace memo key r;
        r)
  in
  go

let and_ m a b =
  apply m m.and_memo ~commutative:true
    ~short:(fun a b ->
      match (a, b) with
      | False, _ | _, False -> Some False
      | True, x | x, True -> Some x
      | _ -> if a == b then Some a else None)
    (fun _ _ -> assert false)
    a b

let or_ m a b =
  apply m m.or_memo ~commutative:true
    ~short:(fun a b ->
      match (a, b) with
      | True, _ | _, True -> Some True
      | False, x | x, False -> Some x
      | _ -> if a == b then Some a else None)
    (fun _ _ -> assert false)
    a b

let xor m a b =
  apply m m.xor_memo ~commutative:true
    ~short:(fun a b ->
      match (a, b) with
      | False, x | x, False -> Some x
      | True, x | x, True -> Some (not_ m x)
      | _ -> if a == b then Some False else None)
    (fun _ _ -> assert false)
    a b

let imp m a b = or_ m (not_ m a) b
let iff m a b = not_ m (xor m a b)
let implies m a b = imp m a b == True

let ( &&& ) = and_
let ( ||| ) = or_

let rec ite m c t e =
  match c with
  | True -> t
  | False -> e
  | Node _ when t == e -> t
  | Node _ when t == True && e == False -> c
  | Node nc -> (
    let key = (node_id c, node_id t, node_id e) in
    match Memo3.find_opt m.ite_memo key with
    | Some r ->
      m.ite_hits <- m.ite_hits + 1;
      r
    | None ->
      m.ite_misses <- m.ite_misses + 1;
      Budget.tick m.budget ~phase;
      let top_var =
        let vt = match t with Node n -> n.v | _ -> max_int in
        let ve = match e with Node n -> n.v | _ -> max_int in
        min nc.v (min vt ve)
      in
      let cof b =
        match b with
        | Node n when n.v = top_var -> (n.lo, n.hi)
        | _ -> (b, b)
      in
      let c0, c1 = cof c and t0, t1 = cof t and e0, e1 = cof e in
      let r = mk m top_var ~lo:(ite m c0 t0 e0) ~hi:(ite m c1 t1 e1) in
      Memo3.replace m.ite_memo key r;
      r)

let and_list m = List.fold_left (and_ m) True
let or_list m = List.fold_left (or_ m) False

let rec restrict m b ~var ~value =
  match b with
  | False | True -> b
  | Node { id; v; lo; hi } ->
    if v > var then b
    else if v = var then if value then hi else lo
    else
      let key = (id, var, if value then 1 else 0) in
      (match Memo3.find_opt m.restrict_memo key with
      | Some r -> r
      | None ->
        Budget.tick m.budget ~phase;
        let r =
          mk m v ~lo:(restrict m lo ~var ~value) ~hi:(restrict m hi ~var ~value)
        in
        Memo3.replace m.restrict_memo key r;
        r)

let restrict m b ~var value = restrict m b ~var ~value

let exists m vars b =
  match vars with
  | [] -> b
  | _ ->
    m.quant_gen <- m.quant_gen + 1;
    let gen = m.quant_gen in
    let set = Hashtbl.create (List.length vars) in
    List.iter (fun v -> Hashtbl.replace set v ()) vars;
    m.quant_vars <- set;
    let rec go b =
      match b with
      | False | True -> b
      | Node { id; v; lo; hi } -> (
        match Memo2.find_opt m.exists_memo (id, gen) with
        | Some r -> r
        | None ->
          Budget.tick m.budget ~phase;
          let r =
            if Hashtbl.mem set v then or_ m (go lo) (go hi)
            else mk m v ~lo:(go lo) ~hi:(go hi)
          in
          Memo2.replace m.exists_memo (id, gen) r;
          r)
    in
    go b

let forall m vars b = not_ m (exists m vars (not_ m b))

let rename_shift m b k =
  if k = 0 then b
  else begin
    (* Use the quantifier generation counter to key this call's memo
       entries, since the shift amount changes the result. *)
    m.quant_gen <- m.quant_gen + 1;
    let gen = m.quant_gen in
    let rec go b =
      match b with
      | False | True -> b
      | Node { id; v; lo; hi } -> (
        match Memo2.find_opt m.shift_memo (id, gen) with
        | Some r -> r
        | None ->
          Budget.tick m.budget ~phase;
          if v + k < 0 then invalid_arg "Bdd.rename_shift: negative variable";
          let r = mk m (v + k) ~lo:(go lo) ~hi:(go hi) in
          Memo2.replace m.shift_memo (id, gen) r;
          r)
    in
    go b
  end

let equal a b = a == b
let compare_id a b = Int.compare (node_id a) (node_id b)
let hash b = node_id b
let is_bot b = b == False
let is_top b = b == True

let rec eval b env =
  match b with
  | False -> false
  | True -> true
  | Node { v; lo; hi; _ } -> if env v then eval hi env else eval lo env

let support b =
  let seen = Hashtbl.create 64 in
  let vars = Hashtbl.create 16 in
  let rec go = function
    | False | True -> ()
    | Node { id; v; lo; hi } ->
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.replace seen id ();
        Hashtbl.replace vars v ();
        go lo;
        go hi
      end
  in
  go b;
  Hashtbl.fold (fun v () acc -> v :: acc) vars [] |> List.sort compare

let size b =
  let seen = Hashtbl.create 64 in
  let rec go = function
    | False | True -> ()
    | Node { id; lo; hi; _ } ->
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.replace seen id ();
        go lo;
        go hi
      end
  in
  go b;
  Hashtbl.length seen

let rename_monotone m b f =
  let sup = support b in
  let rec check = function
    | x :: (y :: _ as rest) ->
      if f x >= f y then
        invalid_arg "Bdd.rename_monotone: map is not strictly increasing";
      check rest
    | _ -> ()
  in
  (match sup with
  | x :: _ when f x < 0 -> invalid_arg "Bdd.rename_monotone: negative variable"
  | _ -> ());
  check sup;
  m.quant_gen <- m.quant_gen + 1;
  let gen = m.quant_gen in
  let rec go b =
    match b with
    | False | True -> b
    | Node { id; v; lo; hi } -> (
      match Memo2.find_opt m.shift_memo (id, gen) with
      | Some r -> r
      | None ->
        Budget.tick m.budget ~phase;
        let r = mk m (f v) ~lo:(go lo) ~hi:(go hi) in
        Memo2.replace m.shift_memo (id, gen) r;
        r)
  in
  go b

let sat_count b ~nvars =
  (* Counts assignments over variables [0..nvars-1]; memoized on node id. *)
  let memo = Hashtbl.create 64 in
  let rec go b =
    (* number of sat assignments over variables >= level of b's root,
       normalized by treating the root as level [var] *)
    match b with
    | False -> (0.0, nvars)
    | True -> (1.0, nvars)
    | Node { id; v; lo; hi } -> (
      match Hashtbl.find_opt memo id with
      | Some r -> r
      | None ->
        let clo, vlo = go lo and chi, vhi = go hi in
        let scale c from_v = c *. (2.0 ** float_of_int (from_v - v - 1)) in
        let r = (scale clo vlo +. scale chi vhi, v) in
        Hashtbl.replace memo id r;
        r)
  in
  let c, v = go b in
  c *. (2.0 ** float_of_int v)

let any_sat b =
  let rec go acc = function
    | False -> raise Not_found
    | True -> List.rev acc
    | Node { v; lo; hi; _ } ->
      if lo == False then go ((v, true) :: acc) hi else go ((v, false) :: acc) lo
  in
  go [] b

let pp ppf b =
  match b with
  | False -> Format.pp_print_string ppf "false"
  | True -> Format.pp_print_string ppf "true"
  | _ ->
    let first = ref true in
    let rec cubes acc = function
      | False -> ()
      | True ->
        if not !first then Format.fprintf ppf " | ";
        first := false;
        (match List.rev acc with
        | [] -> Format.pp_print_string ppf "true"
        | lits ->
          Format.pp_print_list
            ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "&")
            (fun ppf (v, s) -> Format.fprintf ppf "%s%d" (if s then "x" else "!x") v)
            ppf lits)
      | Node { v; lo; hi; _ } ->
        cubes ((v, false) :: acc) lo;
        cubes ((v, true) :: acc) hi
    in
    cubes [] b

(* --- statistics (defined last so the [man] fields above stay the ones
   field punning resolves to) ----------------------------------------- *)

type stats = {
  nodes : int;
  apply_hits : int;
  apply_misses : int;
  ite_hits : int;
  ite_misses : int;
}

let stats (m : man) =
  {
    nodes = Unique.length m.unique;
    apply_hits = m.apply_hits;
    apply_misses = m.apply_misses;
    ite_hits = m.ite_hits;
    ite_misses = m.ite_misses;
  }

let hit_rate ~hits ~misses =
  let t = hits + misses in
  if t = 0 then 0.0 else float_of_int hits /. float_of_int t

let stats_to_json (s : stats) =
  Json.Obj
    [
      ("nodes", Json.Int s.nodes);
      ("apply_hits", Json.Int s.apply_hits);
      ("apply_misses", Json.Int s.apply_misses);
      ("ite_hits", Json.Int s.ite_hits);
      ("ite_misses", Json.Int s.ite_misses);
    ]

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "nodes=%d apply memo %d/%d hits (%.0f%%), ite memo %d/%d hits (%.0f%%)"
    s.nodes s.apply_hits
    (s.apply_hits + s.apply_misses)
    (100.0 *. hit_rate ~hits:s.apply_hits ~misses:s.apply_misses)
    s.ite_hits
    (s.ite_hits + s.ite_misses)
    (100.0 *. hit_rate ~hits:s.ite_hits ~misses:s.ite_misses)
