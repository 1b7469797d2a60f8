type universe = {
  man : Bdd.man;
  comms : int array;
  lps : int array;
  meds : int array;
  lp_bits : int;
  med_bits : int;
  width : int;
}

let index_of arr x =
  let rec go i =
    if i >= Array.length arr then None
    else if arr.(i) = x then Some i
    else go (i + 1)
  in
  go 0

type universe_params = {
  up_comms : int array;
  up_lps : int array;
  up_meds : int array;
}

let params_of_universe u = { up_comms = u.comms; up_lps = u.lps; up_meds = u.meds }

let universe_params ?(keep_unmatched_comms = false) (net : Device.network) =
  let matched = ref [] and set = ref [] and lps = ref [ Bgp.default_lp ] in
  let meds = ref [ 0 ] in
  let scan_rm rm =
    matched := Route_map.communities_matched rm @ !matched;
    set := Route_map.communities_set rm @ !set;
    List.iter
      (fun (cl : Route_map.clause) ->
        List.iter
          (function
            | Route_map.Set_local_pref lp -> lps := lp :: !lps
            | Route_map.Set_med m -> meds := m :: !meds
            | Route_map.Add_community _ | Route_map.Delete_community _ -> ())
          cl.actions)
      rm
  in
  Array.iter
    (fun (r : Device.router) ->
      List.iter
        (fun (_, (nb : Device.bgp_neighbor)) ->
          Option.iter scan_rm nb.import_rm;
          Option.iter scan_rm nb.export_rm)
        r.bgp_neighbors)
    net.routers;
  let comms =
    if keep_unmatched_comms then !matched @ !set else !matched
  in
  {
    up_comms = Array.of_list (List.sort_uniq Int.compare comms);
    up_lps = Array.of_list (List.sort_uniq Int.compare !lps);
    up_meds = Array.of_list (List.sort_uniq Int.compare !meds);
  }

let universe_of_network ?keep_unmatched_comms net =
  let { up_comms; up_lps; up_meds } =
    universe_params ?keep_unmatched_comms net
  in
  let lp_bits = Bvec.bits_needed (max 1 (Array.length up_lps - 1)) in
  let med_bits = Bvec.bits_needed (max 1 (Array.length up_meds - 1)) in
  {
    man = Bdd.man ();
    comms = up_comms;
    lps = up_lps;
    meds = up_meds;
    lp_bits;
    med_bits;
    width = Array.length up_comms + lp_bits + med_bits + 1;
  }

(* Variable layout: the input, output and scratch variables of one field
   are adjacent ([3*field + b] with b = 0 input, 1 output, 2 scratch).
   Interleaving keeps the input-output equality constraints of
   pass-through fields local, so relation BDDs stay linear in the number
   of fields; a block-major layout would make them exponential. *)
let field_var _u b field = (3 * field) + b
let comm_var u b i = field_var u b i
let lp_var u b j = field_var u b (Array.length u.comms + j)
let med_var u b j = field_var u b (Array.length u.comms + u.lp_bits + j)
let drop_var u b = field_var u b (u.width - 1)

let lp_vec u b =
  Array.init u.lp_bits (fun j -> Bdd.var u.man (lp_var u b j))

let med_vec u b =
  Array.init u.med_bits (fun j -> Bdd.var u.man (med_var u b j))

(* Output forced to the canonical "dropped" state: drop flag set, all
   other output bits cleared. Keeping the dropped state canonical is what
   makes the relation a function of its inputs, hence the BDD canonical. *)
let dropped_output u =
  let m = u.man in
  let acc = ref (Bdd.var m (drop_var u 1)) in
  Array.iteri (fun i _ -> acc := Bdd.and_ m !acc (Bdd.nvar m (comm_var u 1 i))) u.comms;
  for j = 0 to u.lp_bits - 1 do
    acc := Bdd.and_ m !acc (Bdd.nvar m (lp_var u 1 j))
  done;
  for j = 0 to u.med_bits - 1 do
    acc := Bdd.and_ m !acc (Bdd.nvar m (med_var u 1 j))
  done;
  !acc

(* Output equal to input on every field, not dropped. *)
let passthrough_output u =
  let m = u.man in
  let acc = ref (Bdd.nvar m (drop_var u 1)) in
  Array.iteri
    (fun i _ ->
      acc :=
        Bdd.and_ m !acc
          (Bdd.iff m (Bdd.var m (comm_var u 1 i)) (Bdd.var m (comm_var u 0 i))))
    u.comms;
  acc := Bdd.and_ m !acc (Bvec.eq m (lp_vec u 1) (lp_vec u 0));
  acc := Bdd.and_ m !acc (Bvec.eq m (med_vec u 1) (med_vec u 0));
  !acc

let guard_dropped_input u rel =
  Bdd.ite u.man (Bdd.var u.man (drop_var u 0)) (dropped_output u) rel

let identity u = guard_dropped_input u (passthrough_output u)
let drop_all u = dropped_output u

(* The output relation of one Permit clause. Actions apply in order, so a
   later action on the same field overrides an earlier one. *)
let clause_output u (actions : Route_map.action list) =
  let m = u.man in
  (* Per-community fate: None = passthrough, Some b = forced constant. *)
  let fate = Array.make (Array.length u.comms) None in
  let lp_set = ref None and med_set = ref None in
  List.iter
    (fun (a : Route_map.action) ->
      match a with
      | Route_map.Add_community c -> (
        match index_of u.comms c with
        | Some i -> fate.(i) <- Some true
        | None -> () (* community outside the universe: erased by h *))
      | Route_map.Delete_community c -> (
        match index_of u.comms c with
        | Some i -> fate.(i) <- Some false
        | None -> ())
      | Route_map.Set_local_pref lp -> lp_set := Some lp
      | Route_map.Set_med md -> med_set := Some md)
    actions;
  let acc = ref (Bdd.nvar m (drop_var u 1)) in
  Array.iteri
    (fun i f ->
      let out = Bdd.var m (comm_var u 1 i) in
      let c =
        match f with
        | None -> Bdd.iff m out (Bdd.var m (comm_var u 0 i))
        | Some true -> out
        | Some false -> Bdd.not_ m out
      in
      acc := Bdd.and_ m !acc c)
    fate;
  (match !lp_set with
  | None -> acc := Bdd.and_ m !acc (Bvec.eq m (lp_vec u 1) (lp_vec u 0))
  | Some lp -> (
    match index_of u.lps lp with
    | Some i -> acc := Bdd.and_ m !acc (Bvec.eq_const m (lp_vec u 1) i)
    | None -> invalid_arg "Policy_bdd: local-pref value outside the universe"));
  (match !med_set with
  | None -> acc := Bdd.and_ m !acc (Bvec.eq m (med_vec u 1) (med_vec u 0))
  | Some md -> (
    match index_of u.meds md with
    | Some i -> acc := Bdd.and_ m !acc (Bvec.eq_const m (med_vec u 1) i)
    | None -> invalid_arg "Policy_bdd: MED value outside the universe"));
  !acc

let cond_bdd u (c : Route_map.cond) =
  let m = u.man in
  match c with
  | Route_map.Match_community cs ->
    List.fold_left
      (fun acc c ->
        match index_of u.comms c with
        | Some i -> Bdd.or_ m acc (Bdd.var m (comm_var u 0 i))
        | None -> acc (* can never be attached: contributes false *))
      Bdd.bot cs
  | Route_map.Match_prefix _ ->
    invalid_arg "Policy_bdd: route-map not specialized to a destination"

let encode_route_map u rm ~dest =
  let m = u.man in
  let rm = Route_map.relevant rm ~dest in
  let rel =
    List.fold_right
      (fun (cl : Route_map.clause) tail ->
        let guard = Bdd.and_list m (List.map (cond_bdd u) cl.conds) in
        let body =
          match cl.verdict with
          | Route_map.Deny -> dropped_output u
          | Route_map.Permit -> clause_output u cl.actions
        in
        Bdd.ite m guard body tail)
      rm
      (dropped_output u (* implicit deny *))
  in
  guard_dropped_input u rel

let compose u r1 r2 =
  (* R(x,z) = ∃y. r1(x,y) ∧ r2(y,z): shift r2's (in,out) pairs onto
     (out,scratch), conjoin, project out the middle, then pull the scratch
     variables back into the output slots. *)
  let m = u.man in
  let r2s = Bdd.rename_shift m r2 1 in
  let joined = Bdd.and_ m r1 r2s in
  let mid = List.init u.width (fun f -> (3 * f) + 1) in
  let projected = Bdd.exists m mid joined in
  Bdd.rename_monotone m projected (fun v -> if v mod 3 = 2 then v - 1 else v)

let encode_opt u rm ~dest =
  match rm with None -> identity u | Some rm -> encode_route_map u rm ~dest

(* The maps an edge policy composes: the sender's export map, then the
   receiver's import map. *)
module Maps_tbl = Hashtbl.Make (struct
  type t = Route_map.t option * Route_map.t option

  let equal (e1, i1) (e2, i2) =
    Option.equal Route_map.equal e1 e2 && Option.equal Route_map.equal i1 i2

  let hash = Hashtbl.hash_param 100 200
end)

(* Memoized on what an edge policy reads: the two maps, and whether the
   receiver's ACL towards the sender permits [dest]. BDDs are
   hash-consed, so a memoized policy is the very node a fresh encoding
   would build. *)
let edge_policies u (net : Device.network) ~dest =
  let memo = Maps_tbl.create 16 in
  fun recv sender ->
    let r_recv = net.routers.(recv) and r_send = net.routers.(sender) in
    match
      (Device.bgp_neighbor_config r_recv sender,
       Device.bgp_neighbor_config r_send recv)
    with
    | Some imp, Some exp ->
      if not (Acl.permits (Device.acl_for r_recv sender) dest) then drop_all u
      else begin
        let maps = (exp.export_rm, imp.import_rm) in
        match Maps_tbl.find_opt memo maps with
        | Some p -> p
        | None ->
          let p =
            compose u
              (encode_opt u exp.export_rm ~dest)
              (encode_opt u imp.import_rm ~dest)
          in
          Maps_tbl.add memo maps p;
          p
      end
    | _ -> drop_all u

let edge_policy u net ~dest recv sender = edge_policies u net ~dest recv sender

let apply u rel (a : Bgp.attr) =
  let m = u.man in
  (* Fix the input block to the advertisement's values. *)
  let lp_idx =
    match index_of u.lps a.lp with
    | Some i -> i
    | None -> invalid_arg "Policy_bdd.apply: local-pref outside the universe"
  in
  let med_idx =
    match index_of u.meds a.med with
    | Some i -> i
    | None -> invalid_arg "Policy_bdd.apply: MED outside the universe"
  in
  let restricted = ref rel in
  let fix var value = restricted := Bdd.restrict m !restricted ~var value in
  Array.iteri (fun i c -> fix (comm_var u 0 i) (Bgp.has_comm c a)) u.comms;
  for j = 0 to u.lp_bits - 1 do
    fix (lp_var u 0 j) ((lp_idx lsr j) land 1 = 1)
  done;
  for j = 0 to u.med_bits - 1 do
    fix (med_var u 0 j) ((med_idx lsr j) land 1 = 1)
  done;
  fix (drop_var u 0) false;
  (* The relation is functional: the remaining BDD is a single full
     assignment of the output block. *)
  let assignment =
    try Bdd.any_sat !restricted
    with Not_found ->
      invalid_arg "Policy_bdd.apply: relation has no output (not functional?)"
  in
  let value var =
    match List.assoc_opt var assignment with Some b -> b | None -> false
  in
  if value (drop_var u 1) then None
  else begin
    let outside =
      List.filter (fun c -> index_of u.comms c = None) a.comms
    in
    let inside =
      Array.to_list u.comms
      |> List.filteri (fun i _ -> value (comm_var u 1 i))
    in
    let lp_out = ref 0 and med_out = ref 0 in
    for j = u.lp_bits - 1 downto 0 do
      lp_out := (2 * !lp_out) + if value (lp_var u 1 j) then 1 else 0
    done;
    for j = u.med_bits - 1 downto 0 do
      med_out := (2 * !med_out) + if value (med_var u 1 j) then 1 else 0
    done;
    if !lp_out >= Array.length u.lps || !med_out >= Array.length u.meds then
      invalid_arg "Policy_bdd.apply: output value outside the universe";
    Some
      {
        Bgp.lp = u.lps.(!lp_out);
        med = u.meds.(!med_out);
        comms = List.sort_uniq Int.compare (inside @ outside);
        path = a.path;
      }
  end

let same = Bdd.equal

let var_name u v =
  let block = v mod 3 and field = v / 3 in
  let prime = match block with 0 -> "" | 1 -> "'" | _ -> "''" in
  let ncomms = Array.length u.comms in
  if field < ncomms then
    let c = u.comms.(field) in
    let c_str =
      if c >= 65536 then Printf.sprintf "%d:%d" (c lsr 16) (c land 0xFFFF)
      else string_of_int c
    in
    Printf.sprintf "comm(%s)%s" c_str prime
  else if field < ncomms + u.lp_bits then
    Printf.sprintf "lp[%d]%s" (field - ncomms) prime
  else if field < ncomms + u.lp_bits + u.med_bits then
    Printf.sprintf "med[%d]%s" (field - ncomms - u.lp_bits) prime
  else Printf.sprintf "drop%s" prime

let pp_policy u ppf b =
  if Bdd.is_top b then Format.pp_print_string ppf "true"
  else if Bdd.is_bot b then Format.pp_print_string ppf "false"
  else begin
    (* enumerate cubes by co-factoring on the support, smallest var first *)
    let support = Bdd.support b in
    let first = ref true in
    let rec cubes acc rest b =
      if Bdd.is_bot b then ()
      else
        match rest with
        | [] ->
          if not !first then Format.fprintf ppf "@ | ";
          first := false;
          (match List.rev acc with
          | [] -> Format.pp_print_string ppf "true"
          | lits ->
            Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " & ")
              Format.pp_print_string ppf lits)
        | v :: rest ->
          let lo = Bdd.restrict u.man b ~var:v false in
          let hi = Bdd.restrict u.man b ~var:v true in
          if Bdd.equal lo hi then cubes acc rest lo
          else begin
            cubes (Printf.sprintf "!%s" (var_name u v) :: acc) rest lo;
            cubes (var_name u v :: acc) rest hi
          end
    in
    Format.fprintf ppf "@[<hov>";
    cubes [] support b;
    Format.fprintf ppf "@]"
  end
