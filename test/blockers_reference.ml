(* [Lint_compress.blockers] as it was before its edge policies were
   memoized: [Policy_bdd.edge_policy] encoded afresh for every interface
   of every group member, and the topology key recomputed for every
   candidate pair. The oracle the memoized implementation is checked
   against. *)

(* Policy-free role of a router: what the topology alone says about it.
   Routers sharing this key are merge candidates; only their policies can
   keep them apart. *)
let topology_key (net : Device.network) v =
  let g = net.Device.graph in
  let r = net.Device.routers.(v) in
  let deg u = Array.length (Graph.succ g u) in
  ( deg v,
    List.sort Int.compare (List.map deg (Array.to_list (Graph.succ g v))),
    r.Device.bgp_neighbors <> [],
    r.Device.ospf_links <> [],
    List.length r.Device.static_routes,
    r.Device.originated <> [],
    List.sort compare r.Device.redistribute )

(* The import-side policy vector of a router for one destination: the edge
   policy of every interface, as (neighbor, BDD). *)
let policy_vector u (net : Device.network) ~dest v =
  Array.to_list (Graph.succ net.Device.graph v)
  |> List.map (fun w -> (w, Policy_bdd.edge_policy u net ~dest v w))

(* The first variable (in BDD order) where two distinct functions
   diverge, by simultaneous descent: at the topmost live variable, if
   both co-factor pairs differ the functions disagree about that variable
   itself; otherwise the difference is confined to one branch — follow
   it. Note [xor]'s support is the wrong tool here: two policies that are
   disjoint in a variable (one forces it true, the other false) cancel it
   out of the XOR entirely. *)
let rec first_diff_var m b1 b2 =
  let v =
    match (Bdd.support b1, Bdd.support b2) with
    | v1 :: _, v2 :: _ -> min v1 v2
    | v :: _, [] | [], v :: _ -> v
    | [], [] -> invalid_arg "first_diff_var: equal constants"
  in
  let co x = (Bdd.restrict m b1 ~var:v x, Bdd.restrict m b2 ~var:v x) in
  let f1, f2 = co false and t1, t2 = co true in
  if Bdd.equal f1 f2 then first_diff_var m t1 t2
  else if Bdd.equal t1 t2 then first_diff_var m f1 f2
  else v

let describe_var u i =
  let name = Policy_bdd.var_name u i in
  let base = String.concat "" (String.split_on_char '\'' name) in
  match i mod 3 with
  | 0 -> Printf.sprintf "input %s" base
  | 1 -> Printf.sprintf "output %s" base
  | _ -> name


let blockers (net : Device.network) =
  let g = net.Device.graph in
  let n = Graph.n_nodes g in
  match
    List.find_opt
      (fun (ec : Ecs.ec) -> match ec.ec_origins with [ _ ] -> true | _ -> false)
      (Ecs.compute net)
  with
  | None -> []
  | Some ec ->
    let dest = ec.Ecs.ec_prefix in
    let origin = Ecs.single_origin ec in
    let u = Policy_bdd.universe_of_network net in
    let m = u.Policy_bdd.man in
    let groups = Hashtbl.create 16 in
    for v = 0 to n - 1 do
      let k = topology_key net v in
      Hashtbl.replace groups k
        (v :: Option.value ~default:[] (Hashtbl.find_opt groups k))
    done;
    (* Deterministic group order: by smallest member id (Hashtbl.iter
       order depends on key hashing). *)
    let groups =
      Hashtbl.fold (fun _ members acc -> List.rev members :: acc) groups []
      |> List.filter (function [] | [ _ ] -> false | _ -> true)
      |> List.sort (fun a b -> Int.compare (List.hd a) (List.hd b))
    in
    (* Multiset difference of policy vectors by semantic (pointer)
       equality: the interfaces of [a] whose policy has no matching
       occurrence among [b]'s. Shared policies are exactly what would let
       the two routers merge, so only the leftovers can block. *)
    let vector_minus a b =
      List.fold_left
        (fun (left, b) (w, p) ->
          let rec pull acc = function
            | [] -> None
            | (_, q) :: rest when Policy_bdd.same p q ->
              Some (List.rev_append acc rest)
            | x :: rest -> pull (x :: acc) rest
          in
          match pull [] b with
          | Some b -> (left, b)
          | None -> ((w, p) :: left, b))
        ([], b) a
      |> fst
    in
    let out = ref [] in
    List.iter
      (fun members ->
        match members with
        | [] | [ _ ] -> ()
        | rep :: rest -> (
          let pv = policy_vector u net ~dest in
          let vec_rep = pv rep in
          (* The closest blocking pair in the group: the semantically
             different policy pair with the smallest XOR, comparing only
             interfaces towards the same kind of neighbor. *)
          let best = ref None in
          List.iter
            (fun v ->
              let vec_v = pv v in
              let rep_only = vector_minus vec_rep vec_v
              and v_only = vector_minus vec_v vec_rep in
              List.iter
                (fun (w1, b1) ->
                  List.iter
                    (fun (w2, b2) ->
                      if topology_key net w1 = topology_key net w2 then begin
                        let d = Bdd.xor m b1 b2 in
                        (* Near-equal only: the difference is confined to a
                           couple of fields. Genuinely different policies
                           mean genuinely different roles — not a blocker
                           worth reporting. *)
                        if List.length (Bdd.support d) <= 2 * 3 then
                          let sz = Bdd.size d in
                          match !best with
                          | Some (_, _, _, _, _, sz') when sz' <= sz -> ()
                          | _ -> best := Some (rep, w1, v, w2, d, sz)
                      end)
                    v_only)
                rep_only)
            rest;
          match !best with
          | None -> ()
          | Some (r1, w1, r2, w2, diff, _) ->
            let b1 = List.assoc w1 (pv r1) and b2 = List.assoc w2 (pv r2) in
            let v0 = first_diff_var m b1 b2 in
            let witness =
              Bdd.any_sat diff
              |> List.filter (fun (i, _) -> i mod 3 <> 2)
              |> List.map (fun (i, b) ->
                     Printf.sprintf "%s%s" (if b then "" else "!")
                       (Policy_bdd.var_name u i))
              |> String.concat " "
            in
            out :=
              {
                Lint_compress.bl_dest = dest;
                bl_origin = origin;
                bl_r1 = r1;
                bl_w1 = w1;
                bl_r2 = r2;
                bl_w2 = w2;
                bl_var = describe_var u v0;
                bl_witness = witness;
              }
              :: !out))
      groups;
    List.rev !out

