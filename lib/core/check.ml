type violation = { condition : string; detail : string }

let pp_violation ppf v =
  Format.fprintf ppf "%s: %s" v.condition v.detail

let check (t : Abstraction.t) ~signature =
  let g = t.Abstraction.net.Device.graph in
  let ag = t.Abstraction.abs_graph in
  let out = ref [] in
  let add condition detail = out := { condition; detail } :: !out in
  let name u = Graph.name g u in
  (* dest-equivalence *)
  let dest_group = t.Abstraction.group_of.(t.Abstraction.dest) in
  (match t.Abstraction.groups.(dest_group) with
  | [ d ] when d = t.Abstraction.dest -> ()
  | ms ->
    add "dest-equivalence"
      (Printf.sprintf "destination group has %d members" (List.length ms)));
  (* abstract self-loop freedom: Graph.Builder rejects self-loops, so a
     violation can only arise from a single-copy group with internal
     edges, which Abstraction.make rejects; still check edges for safety *)
  Graph.iter_edges ag (fun a1 a2 ->
      if a1 = a2 then add "self-loop-free" (Printf.sprintf "loop at %d" a1));
  (* forall-exists 1: every concrete edge between distinct groups has an
     abstract image. Intra-group edges are intentionally dead (no abstract
     self-loop; inter-copy edges for split groups). *)
  Graph.iter_edges g (fun u v ->
      let a1 = Abstraction.f t u and a2 = Abstraction.f t v in
      if
        t.Abstraction.group_of.(u) <> t.Abstraction.group_of.(v)
        && not (Graph.has_edge ag a1 a2)
      then
        add "forall-exists-1"
          (Printf.sprintf "edge (%s,%s) has no abstract image" (name u) (name v)));
  (* forall-exists 2 and transfer-equivalence, per abstract edge between
     distinct groups *)
  Graph.iter_edges ag (fun a1 a2 ->
      let g1 = t.Abstraction.group_of_abs.(a1)
      and g2 = t.Abstraction.group_of_abs.(a2) in
      if g1 <> g2 then begin
        let members1 = t.Abstraction.groups.(g1) in
        let sigs = ref [] in
        List.iter
          (fun u ->
            let nbrs =
              Array.to_list (Graph.succ g u)
              |> List.filter (fun v -> t.Abstraction.group_of.(v) = g2 && v <> u)
            in
            if nbrs = [] then
              add "forall-exists-2"
                (Printf.sprintf
                   "node %s (abstract %d) has no edge into abstract %d"
                   (name u) a1 a2)
            else
              List.iter (fun v -> sigs := signature u v :: !sigs) nbrs)
          members1;
        match !sigs with
        | s :: rest
          when not (List.for_all (Compile.signature_equal s) rest) ->
          add "transfer-equivalence"
            (Printf.sprintf
               "edges mapping to abstract (%d,%d) have differing signatures"
               a1 a2)
        | _ -> ()
      end);
  (* forall-forall for split groups: identical concrete neighborhoods *)
  Array.iteri
    (fun gid members ->
      if t.Abstraction.copies.(gid) > 1 then begin
        let nbr_sets =
          List.map
            (fun u ->
              Array.to_list (Graph.succ g u) |> List.sort_uniq Int.compare)
            members
        in
        match List.sort_uniq (List.compare Int.compare) nbr_sets with
        | [] | [ _ ] -> ()
        | _ ->
          add "forall-forall"
            (Printf.sprintf
               "split group %d members have differing neighborhoods" gid)
      end)
    t.Abstraction.groups;
  List.rev !out
