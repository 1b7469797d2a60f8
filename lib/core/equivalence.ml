type outcome = {
  ok : bool;
  errors : string list;
  fr : int array;
  abs_labels_opaque : unit;
}

(* Topological order of the concrete forwarding relation: every node after
   its forwarding successors. Returns [None] on a forwarding cycle. *)
let topo_order (sol : 'a Solution.t) =
  let g = sol.Solution.srp.Srp.graph in
  let n = Graph.n_nodes g in
  let color = Array.make n 0 in
  let order = ref [] in
  let cyclic = ref false in
  let rec visit u =
    if color.(u) = 1 then cyclic := true
    else if color.(u) = 0 then begin
      color.(u) <- 1;
      List.iter (fun (_, v) -> visit v) (Solution.fwd sol u);
      color.(u) <- 2;
      order := u :: !order
    end
  in
  for u = 0 to n - 1 do
    visit u
  done;
  if !cyclic then None else Some (List.rev !order)

let generic (type a) ~(abs_srp : a Srp.t) (t : Abstraction.t)
    ~(concrete : a Solution.t) ~(map_attr : fr:(int -> int) -> a -> a)
    ?(behavior_equal : (a -> a -> bool) option) () :
    outcome * a Solution.t option =
  let behavior_equal =
    match behavior_equal with
    | Some f -> f
    | None -> abs_srp.Srp.attr_equal
  in
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let n = Graph.n_nodes t.Abstraction.net.Device.graph in
  let n_abs = Abstraction.n_abstract t in
  let fr = Array.make n (-1) in
  let fail_out () =
    ( { ok = false; errors = List.rev !errors; fr; abs_labels_opaque = () },
      None )
  in
  match topo_order concrete with
  | None ->
    err "concrete forwarding relation is cyclic";
    fail_out ()
  | Some order ->
    (* [order] lists forwarding successors first, so by the time we map
       node u's attribute, every node named in its path already has its
       copy assigned. *)
    let abs_labels : a option array = Array.make n_abs None in
    let assigned : bool array = Array.make n_abs false in
    (* Per group: behaviors claimed so far. A behavior is the h-image of
       the label together with the abstract image of the node's forwarding
       edges: two nodes share a behavior when their labels agree up to
       [behavior_equal] (for BGP: everything but the concrete identity of
       an equal-length path — ties broken across symmetric neighbors) and
       they forward into the same abstract nodes. The stability and
       fwd-equivalence checks below re-validate whatever this merges. *)
    let behaviors : (int, (a option * int list * int) list) Hashtbl.t =
      Hashtbl.create 64
    in
    let attr_opt_equal x y =
      match (x, y) with
      | None, None -> true
      | Some a, Some b -> behavior_equal a b
      | _ -> false
    in
    let construction_ok = ref true in
    let fr_fun u =
      let a = fr.(u) in
      if a < 0 then (
        (* path mentions a node we have not processed: should not happen
           for stable loop-free solutions *)
        construction_ok := false;
        Abstraction.f t u)
      else a
    in
    List.iter
      (fun u ->
        if !construction_ok then begin
          let g = t.Abstraction.group_of.(u) in
          let k = t.Abstraction.copies.(g) in
          let base = t.Abstraction.abs_of_group.(g) in
          let behavior =
            Option.map (map_attr ~fr:fr_fun) concrete.Solution.labels.(u)
          in
          let fwd_img =
            Solution.fwd concrete u
            |> List.map (fun (_, v) -> fr_fun v)
            |> List.sort_uniq compare
          in
          let existing =
            match Hashtbl.find_opt behaviors g with Some l -> l | None -> []
          in
          match
            List.find_opt
              (fun (b, img, _) -> img = fwd_img && attr_opt_equal b behavior)
              existing
          with
          | Some (_, _, idx) -> fr.(u) <- base + idx
          | None ->
            let idx = List.length existing in
            if idx >= k then begin
              err
                "group of %s exhibits more behaviors than its %d copies"
                (Graph.name t.Abstraction.net.Device.graph u)
                k;
              construction_ok := false
            end
            else begin
              Hashtbl.replace behaviors g ((behavior, fwd_img, idx) :: existing);
              fr.(u) <- base + idx;
              (* The slot's label is recomputed through the abstract
                 transfer function along the node's forwarding choice, so
                 it is an offered attribute of the abstract SRP by
                 construction; we then check it is the h-image of the
                 concrete label up to [behavior_equal] — the paper's
                 label-equivalence, modulo which of several tied paths the
                 two sides picked. *)
              let abs_label =
                if u = t.Abstraction.dest then behavior
                else
                  match concrete.Solution.labels.(u) with
                  | None -> None
                  | Some l -> (
                    (* Recompute through the abstract transfer along the
                       same neighbor the concrete label came from (ties
                       can differ in fields ≺ ignores, e.g. communities). *)
                    let provenance =
                      Solution.choices concrete u
                      |> List.find_opt (fun (_, a) ->
                             concrete.Solution.srp.Srp.attr_equal a l)
                    in
                    match provenance with
                    | Some ((_, v), _) ->
                      abs_srp.Srp.trans (base + idx) fr.(v) abs_labels.(fr.(v))
                    | None -> behavior)
              in
              (match (abs_label, behavior) with
              | None, None -> ()
              | Some a, Some b when behavior_equal a b -> ()
              | _ ->
                err "label-equivalence violated at %s"
                  (Graph.name t.Abstraction.net.Device.graph u);
                construction_ok := false);
              abs_labels.(base + idx) <- abs_label;
              assigned.(base + idx) <- true
            end
        end)
      order;
    if not !construction_ok then fail_out ()
    else begin
      (* Make f_r onto (Theorem A.8): a copy that received no behavior
         steals a concrete node from a sibling copy holding several, and
         mirrors that copy's label. Copies are capped at the group size,
         so by pigeonhole such a sibling always exists. *)
      let slot_members = Array.make n_abs [] in
      for u = n - 1 downto 0 do
        if fr.(u) >= 0 then slot_members.(fr.(u)) <- u :: slot_members.(fr.(u))
      done;
      for a = 0 to n_abs - 1 do
        if not assigned.(a) then begin
          let g = t.Abstraction.group_of_abs.(a) in
          let base = t.Abstraction.abs_of_group.(g) in
          let donor = ref None in
          for s = base to base + t.Abstraction.copies.(g) - 1 do
            if !donor = None && assigned.(s)
               && List.length slot_members.(s) > 1
            then donor := Some s
          done;
          match !donor with
          | Some s -> (
            match slot_members.(s) with
            | u :: rest ->
              slot_members.(s) <- rest;
              slot_members.(a) <- [ u ];
              fr.(u) <- a;
              abs_labels.(a) <- abs_labels.(s);
              assigned.(a) <- true
            | [] -> assert false)
          | None ->
            err "no donor member for unassigned abstract copy %d" a
        end
      done;
      let abs_sol = Solution.of_labels abs_srp abs_labels in
      (* 1. abstract labeling must be a stable solution *)
      List.iter
        (fun (node, why) ->
          err "abstract solution unstable at %s: %s"
            (Graph.name t.Abstraction.abs_graph node)
            why)
        (Solution.stability_violations abs_sol);
      (* 2. fwd-equivalence, concrete-to-abstract *)
      for u = 0 to n - 1 do
        List.iter
          (fun (_, v) ->
            let au = fr.(u) and av = fr.(v) in
            let abs_fwd = Solution.fwd abs_sol au in
            if not (List.exists (fun (_, w) -> w = av) abs_fwd) then
              err "concrete fwd edge (%s,%s) has no abstract counterpart"
                (Graph.name t.Abstraction.net.Device.graph u)
                (Graph.name t.Abstraction.net.Device.graph v))
          (Solution.fwd concrete u)
      done;
      (* 3. fwd-equivalence, abstract-to-concrete *)
      for au = 0 to n_abs - 1 do
        List.iter
          (fun (_, av) ->
            List.iter
              (fun u ->
                if fr.(u) = au then begin
                  let ok =
                    List.exists
                      (fun (_, v) -> fr.(v) = av)
                      (Solution.fwd concrete u)
                  in
                  if not ok then
                    err
                      "abstract fwd edge (%d,%d) not realized at concrete %s"
                      au av
                      (Graph.name t.Abstraction.net.Device.graph u)
                end)
              t.Abstraction.groups.(t.Abstraction.group_of_abs.(au))
          )
          (Solution.fwd abs_sol au)
      done;
      ( {
          ok = !errors = [];
          errors = List.rev !errors;
          fr;
          abs_labels_opaque = ();
        },
        Some abs_sol )
    end

(* BGP labels are the same behavior when they agree on everything except
   which of several equal-length (hence tied) paths was chosen. *)
let bgp_behavior_equal (a : Bgp.attr) (b : Bgp.attr) =
  a.Bgp.lp = b.Bgp.lp && a.Bgp.med = b.Bgp.med && a.Bgp.comms = b.Bgp.comms
  && List.length a.Bgp.path = List.length b.Bgp.path

let check_bgp ?loop_prevention t (sol : Bgp.attr Solution.t) =
  let abs_srp = Abstraction.bgp_srp ?loop_prevention t in
  generic ~abs_srp t ~concrete:sol
    ~map_attr:(fun ~fr a -> Abstraction.h_attr t ~fr a)
    ~behavior_equal:bgp_behavior_equal ()

let check_multi t (sol : Multi.attr Solution.t) =
  let abs_srp = Abstraction.multi_srp t in
  let map_attr ~fr (a : Multi.attr) =
    {
      a with
      Multi.bgp =
        Option.map
          (fun (b : Multi.bgp_route) ->
            { b with Multi.battr = Abstraction.h_attr t ~fr b.Multi.battr })
          a.Multi.bgp;
    }
  in
  let behavior_equal (a : Multi.attr) (b : Multi.attr) =
    a.Multi.static_ = b.Multi.static_
    && a.Multi.ospf = b.Multi.ospf
    &&
    match (a.Multi.bgp, b.Multi.bgp) with
    | None, None -> true
    | Some x, Some y ->
      x.Multi.via_ibgp = y.Multi.via_ibgp
      && bgp_behavior_equal x.Multi.battr y.Multi.battr
    | _ -> false
  in
  generic ~abs_srp t ~concrete:sol ~map_attr ~behavior_equal ()

let check_plain ~abs_srp t sol =
  generic ~abs_srp t ~concrete:sol ~map_attr:(fun ~fr:_ a -> a) ()
