(* Certificates and their independent checker. See certify.mli for the
   trust story; the implementation deliberately avoids the engine's
   refinement loop, its long-lived BDD manager and the incremental
   signature cache: signatures are recomputed in a fresh universe, route
   maps are additionally executed directly ([Compile.bgp_policy] is pure
   [Route_map.eval] composition), and the claimed labeling is judged by
   [Solution.is_stable], never by re-running the solver it came from. *)

type audit = Full | Sample

let audit_of_string = function
  | "full" -> Some Full
  | "sample" -> Some Sample
  | _ -> None

let audit_to_string = function Full -> "full" | Sample -> "sample"

type cert = {
  c_prefix : string;
  c_dest : string;
  c_groups : string list list;
  c_reprs : string list;
  c_prefs : int list list;
  c_copies : int list;
  c_abs_edges : (int * int) list;
  c_edge_reprs : ((int * int) * (string * string)) list;
  c_labels : Json.t option;
  c_degraded : bool;
}

type t = { network : string; certs : cert list }

type failure = { f_prefix : string; f_condition : string; f_detail : string }

type verdict =
  | Certified of { ecs : int; obligations : int }
  | Refuted of failure list
  | Audit_incomplete of Budget.info

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)

let attr_json (a : Bgp.attr) =
  Json.Obj
    [
      ("lp", Json.Int a.Bgp.lp);
      ("med", Json.Int a.Bgp.med);
      ("comms", Json.List (List.map (fun c -> Json.Int c) a.Bgp.comms));
      ("path", Json.List (List.map (fun p -> Json.Int p) a.Bgp.path));
    ]

let attr_of_json j =
  match j with
  | Json.Null -> Ok None
  | Json.Obj _ ->
    let int_field k =
      match Option.map Json.to_int_opt (Json.member k j) with
      | Some (Some i) -> Ok i
      | _ -> Error (Printf.sprintf "label: missing int field %S" k)
    in
    let int_list_field k =
      match Json.member k j with
      | Some (Json.List xs) ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | x :: tl -> (
            match Json.to_int_opt x with
            | Some i -> go (i :: acc) tl
            | None -> Error (Printf.sprintf "label: non-int in %S" k))
        in
        go [] xs
      | _ -> Error (Printf.sprintf "label: missing list field %S" k)
    in
    Result.bind (int_field "lp") (fun lp ->
        Result.bind (int_field "med") (fun med ->
            Result.bind (int_list_field "comms") (fun comms ->
                Result.bind (int_list_field "path") (fun path ->
                    Ok (Some { Bgp.lp; med; comms; path })))))
  | _ -> Error "label: expected object or null"

let of_ec_result (net : Device.network) (r : Bonsai_api.ec_result) =
  let t = r.Bonsai_api.abstraction in
  let g = net.Device.graph in
  let name u = Graph.name g u in
  let ec = r.Bonsai_api.ec in
  let prefs_of u = Bonsai_api.effective_prefs net ec u in
  let groups = Array.to_list (Array.map (List.map name) t.Abstraction.groups) in
  let reprs =
    Array.to_list
      (Array.map (fun ms -> name (List.hd ms)) t.Abstraction.groups)
  in
  let prefs =
    Array.to_list
      (Array.map
         (fun ms -> Refine.group_prefs ~prefs:prefs_of ms)
         t.Abstraction.groups)
  in
  let abs_edges = ref [] in
  Graph.iter_edges t.Abstraction.abs_graph (fun a b ->
      abs_edges := (a, b) :: !abs_edges);
  let abs_edges = List.rev !abs_edges in
  let repr = Abstraction.edge_repr_fun t in
  let edge_reprs =
    List.map
      (fun (a, b) ->
        match repr a b with
        | u, v -> ((a, b), (name u, name v))
        | exception Not_found ->
          (* unreachable for a well-formed abstraction; refuted cleanly
             by the checker's completeness pass *)
          ((a, b), ("?", "?")))
      abs_edges
  in
  let labels =
    (* no labeling claim when the abstract SRP does not stabilize — and a
       corrupted abstraction may not even be solvable (its representative
       edges can dangle); the structural checks still refute it *)
    match Solver.solve (Abstraction.bgp_srp t) with
    | Ok (sol, _) ->
      Some
        (Json.List
           (Array.to_list
              (Array.map
                 (function None -> Json.Null | Some a -> attr_json a)
                 sol.Solution.labels)))
    | Error _ -> None
    | exception (Budget.Exhausted _ as e) -> raise e
    | exception _ -> None
  in
  {
    c_prefix = Prefix.to_string ec.Ecs.ec_prefix;
    c_dest = name t.Abstraction.dest;
    c_groups = groups;
    c_reprs = reprs;
    c_prefs = prefs;
    c_copies = Array.to_list t.Abstraction.copies;
    c_abs_edges = abs_edges;
    c_edge_reprs = edge_reprs;
    c_labels = labels;
    c_degraded = r.Bonsai_api.degraded;
  }

let of_summary ~network (net : Device.network) (s : Bonsai_api.summary) =
  { network; certs = List.map (of_ec_result net) s.Bonsai_api.results }

(* ------------------------------------------------------------------ *)
(* JSON round trip                                                     *)

let format_tag = "bonsai-certificate"
let format_version = 1

let cert_json c =
  let strings xs = Json.List (List.map (fun s -> Json.String s) xs) in
  let ints xs = Json.List (List.map (fun i -> Json.Int i) xs) in
  let base =
    [
      ("prefix", Json.String c.c_prefix);
      ("dest", Json.String c.c_dest);
      ("degraded", Json.Bool c.c_degraded);
      ("groups", Json.List (List.map strings c.c_groups));
      ("reprs", strings c.c_reprs);
      ("prefs", Json.List (List.map ints c.c_prefs));
      ("copies", ints c.c_copies);
      ( "abs_edges",
        Json.List
          (List.map (fun (a, b) -> ints [ a; b ]) c.c_abs_edges) );
      ( "edge_reprs",
        Json.List
          (List.map
             (fun ((a, b), (u, v)) ->
               Json.List
                 [ Json.Int a; Json.Int b; Json.String u; Json.String v ])
             c.c_edge_reprs) );
    ]
  in
  let labels =
    match c.c_labels with None -> [] | Some l -> [ ("labels", l) ]
  in
  Json.Obj (base @ labels)

let to_json t =
  Json.Obj
    [
      ("format", Json.String format_tag);
      ("version", Json.Int format_version);
      ("network", Json.String t.network);
      ("classes", Json.List (List.map cert_json t.certs));
    ]

let ( let* ) = Result.bind

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "certificate: missing field %S" name)

let as_string name j =
  match Json.to_string_opt j with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "certificate: field %S: expected string" name)

let as_list name j =
  match j with
  | Json.List xs -> Ok xs
  | _ -> Error (Printf.sprintf "certificate: field %S: expected list" name)

let map_result f xs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: tl -> ( match f x with Ok y -> go (y :: acc) tl | Error e -> Error e)
  in
  go [] xs

let as_int name j =
  match Json.to_int_opt j with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "certificate: field %S: expected int" name)

let cert_of_json j =
  let* prefix = Result.bind (field "prefix" j) (as_string "prefix") in
  let* dest = Result.bind (field "dest" j) (as_string "dest") in
  let degraded =
    match Option.map Json.to_bool_opt (Json.member "degraded" j) with
    | Some (Some b) -> b
    | _ -> false
  in
  let* groups_j = Result.bind (field "groups" j) (as_list "groups") in
  let* groups =
    map_result
      (fun gj ->
        Result.bind (as_list "groups" gj) (map_result (as_string "groups")))
      groups_j
  in
  let* reprs =
    Result.bind
      (Result.bind (field "reprs" j) (as_list "reprs"))
      (map_result (as_string "reprs"))
  in
  let* prefs =
    Result.bind
      (Result.bind (field "prefs" j) (as_list "prefs"))
      (map_result (fun pj ->
           Result.bind (as_list "prefs" pj) (map_result (as_int "prefs"))))
  in
  let* copies =
    Result.bind
      (Result.bind (field "copies" j) (as_list "copies"))
      (map_result (as_int "copies"))
  in
  let* abs_edges =
    Result.bind
      (Result.bind (field "abs_edges" j) (as_list "abs_edges"))
      (map_result (fun ej ->
           match ej with
           | Json.List [ a; b ] ->
             let* a = as_int "abs_edges" a in
             let* b = as_int "abs_edges" b in
             Ok (a, b)
           | _ -> Error "certificate: abs_edges: expected [a, b]"))
  in
  let* edge_reprs =
    Result.bind
      (Result.bind (field "edge_reprs" j) (as_list "edge_reprs"))
      (map_result (fun ej ->
           match ej with
           | Json.List [ a; b; u; v ] ->
             let* a = as_int "edge_reprs" a in
             let* b = as_int "edge_reprs" b in
             let* u = as_string "edge_reprs" u in
             let* v = as_string "edge_reprs" v in
             Ok ((a, b), (u, v))
           | _ -> Error "certificate: edge_reprs: expected [a, b, u, v]"))
  in
  let labels =
    match Json.member "labels" j with
    | Some (Json.List _ as l) -> Some l
    | _ -> None
  in
  Ok
    {
      c_prefix = prefix;
      c_dest = dest;
      c_groups = groups;
      c_reprs = reprs;
      c_prefs = prefs;
      c_copies = copies;
      c_abs_edges = abs_edges;
      c_edge_reprs = edge_reprs;
      c_labels = labels;
      c_degraded = degraded;
    }

let of_json j =
  let* fmt = Result.bind (field "format" j) (as_string "format") in
  if not (String.equal fmt format_tag) then
    Error (Printf.sprintf "certificate: unknown format %S" fmt)
  else
    let* version = Result.bind (field "version" j) (as_int "version") in
    if version <> format_version then
      Error (Printf.sprintf "certificate: unsupported version %d" version)
    else
      let* network = Result.bind (field "network" j) (as_string "network") in
      let* classes = Result.bind (field "classes" j) (as_list "classes") in
      let* certs = map_result cert_of_json classes in
      Ok { network; certs }

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)

exception Refutation_overflow

let max_failures = 64

let int_list_equal = List.equal Int.equal

(* Deterministic spot-check subset: ends plus the middle. *)
let sample_list audit xs =
  match audit with
  | Full -> xs
  | Sample -> (
    match xs with
    | [] | [ _ ] | [ _; _ ] | [ _; _; _ ] -> xs
    | _ ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      [ arr.(0); arr.(n / 2); arr.(n - 1) ])

(* [sample_list] over the indices [lo .. hi - 1], without the list. *)
let sample_range audit lo hi f =
  let n = hi - lo in
  match audit with
  | Sample when n > 3 ->
    f lo;
    f (lo + (n / 2));
    f (hi - 1)
  | Full | Sample ->
    for i = lo to hi - 1 do
      f i
    done

(* BDD-free probe attributes: the route maps are executed directly on a
   small attribute matrix covering every community the network can match
   plus off-universe preference values. *)
let probe_attrs (u : Policy_bdd.universe) =
  let comms = Array.to_list u.Policy_bdd.comms in
  let comms = List.filteri (fun i _ -> i < 4) comms in
  let comm_sets = [] :: List.map (fun c -> [ c ]) comms in
  List.concat_map
    (fun lp ->
      List.map
        (fun cs -> { Bgp.lp; med = 0; comms = cs; path = [] })
        comm_sets)
    [ Bgp.default_lp; 50; 200 ]

(* Outputs are compared modulo the attribute abstraction h: communities
   no policy matches are erased by the universe (§8), so two route maps
   that differ only in unmatched added communities are equivalent — the
   raw interpreter output is stricter than the abstraction it audits. *)
let project_comms (u : Policy_bdd.universe) (a : Bgp.attr) =
  {
    a with
    Bgp.comms =
      List.filter
        (fun c -> Array.exists (Int.equal c) u.Policy_bdd.comms)
        a.Bgp.comms;
  }

let opt_attr_equal u a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> Bgp.equal (project_comms u a) (project_comms u b)
  | _ -> false

(* One destination class. [add] records a failure; raises
   [Refutation_overflow] past [max_failures] so a garbage certificate
   cannot make the audit quadratic in its own noise. *)
let check_cert ~budget ~audit ~universe ~obligations (net : Device.network)
    (c : cert) add =
  let g = net.Device.graph in
  let n = Graph.n_nodes g in
  let name u = Graph.name g u in
  let fail cond detail = add c.c_prefix cond detail in
  let tick () = Budget.tick budget ~phase:"certify" in
  let obligation () = incr obligations in
  (* -- resolve the class ------------------------------------------- *)
  let class_of prefix =
    match Prefix.of_string_opt prefix with
    | Some p when String.equal (Prefix.to_string p) prefix -> Ecs.of_prefix net p
    | _ -> None
  in
  match class_of c.c_prefix with
  | None -> fail "class" "prefix is not an announced destination class"
  | Some ec when List.length ec.Ecs.ec_origins <> 1 ->
    fail "class" "anycast class cannot be certified"
  | Some ec -> (
    let dest = Ecs.single_origin ec in
    if not (String.equal (name dest) c.c_dest) then
      fail "class"
        (Printf.sprintf "destination is %s, certificate claims %s" (name dest)
           c.c_dest);
    (* -- partition well-formedness --------------------------------- *)
    let n_groups = List.length c.c_groups in
    let group_of = Array.make n (-1) in
    let groups = Array.make (max n_groups 1) [] in
    let ok = ref (n_groups > 0) in
    List.iteri
      (fun gid members ->
        let ids =
          List.filter_map
            (fun nm ->
              match Graph.find_by_name g nm with
              | Some u -> Some u
              | None ->
                ok := false;
                fail "partition" (Printf.sprintf "unknown router %S" nm);
                None)
            members
        in
        let ids = List.sort_uniq Int.compare ids in
        if List.length ids <> List.length members then begin
          ok := false;
          fail "partition"
            (Printf.sprintf "group %d has duplicate or unknown members" gid)
        end;
        List.iter
          (fun u ->
            if group_of.(u) >= 0 then begin
              ok := false;
              fail "partition"
                (Printf.sprintf "router %s appears in two groups" (name u))
            end
            else group_of.(u) <- gid)
          ids;
        if gid < Array.length groups then groups.(gid) <- ids)
      c.c_groups;
    for u = 0 to n - 1 do
      if group_of.(u) < 0 then begin
        ok := false;
        fail "partition"
          (Printf.sprintf "router %s is not covered by any group" (name u))
      end
    done;
    if
      List.length c.c_reprs <> n_groups
      || List.length c.c_prefs <> n_groups
      || List.length c.c_copies <> n_groups
    then begin
      ok := false;
      fail "partition" "reprs/prefs/copies arity differs from groups"
    end;
    if not !ok then () (* structure is broken; nothing below is meaningful *)
    else begin
      let reprs = Array.of_list c.c_reprs in
      let prefs_claim = Array.of_list c.c_prefs in
      let copies_claim = Array.of_list c.c_copies in
      (* canonical group order: the engine numbers groups by first
         occurrence over node ids, and the labeling below relies on it *)
      let seen = Array.make n_groups false in
      let next = ref 0 in
      for u = 0 to n - 1 do
        let gid = group_of.(u) in
        if not seen.(gid) then begin
          seen.(gid) <- true;
          if gid <> !next then
            fail "partition" "groups are not in canonical (first-member) order";
          incr next
        end
      done;
      (* dest-equivalence *)
      (match groups.(group_of.(dest)) with
      | [ d ] when d = dest -> ()
      | ms ->
        fail "dest-equivalence"
          (Printf.sprintf "destination group has %d members" (List.length ms)));
      (* representatives: least member *)
      Array.iteri
        (fun gid members ->
          let least = name (List.hd members) in
          if not (String.equal reprs.(gid) least) then
            fail "representative"
              (Printf.sprintf "group %d: claimed %s, least member is %s" gid
                 reprs.(gid) least))
        groups;
      (* rank agreement: every (sampled) member realizes the claimed
         preference levels *)
      Array.iteri
        (fun gid members ->
          List.iter
            (fun u ->
              tick ();
              obligation ();
              let p = Bonsai_api.effective_prefs net ec u in
              if not (int_list_equal p prefs_claim.(gid)) then
                fail "rank-agreement"
                  (Printf.sprintf
                     "group %d: %s has prefs {%s}, certificate claims {%s}"
                     gid (name u)
                     (String.concat "," (List.map string_of_int p))
                     (String.concat ","
                        (List.map string_of_int prefs_claim.(gid)))))
            (sample_list audit members))
        groups;
      (* copies: the clamp Abstraction.make applies to |prefs(û)| *)
      Array.iteri
        (fun gid members ->
          let expect =
            if List.mem dest members then 1
            else
              max 1
                (min (List.length prefs_claim.(gid)) (List.length members))
          in
          if copies_claim.(gid) <> expect then
            fail "copies"
              (Printf.sprintf "group %d: claimed %d copies, expected %d" gid
                 copies_claim.(gid) expect))
        groups;
      (* -- abstract layout and topology conditions ------------------ *)
      let abs_of_group = Array.make n_groups 0 in
      let total = ref 0 in
      Array.iteri
        (fun gid _ ->
          abs_of_group.(gid) <- !total;
          total := !total + max 1 copies_claim.(gid))
        groups;
      let n_abs = !total in
      (* -- concrete edges bucketed by group pair --------------------- *)
      (* Every edge by its id, counting-sorted by target group and then,
         stably, by source group. Edge ids follow the lexicographic
         order of (u, v), so [order] ends sorted by (group of u, group of
         v, u, v): bucket [b] ([order] from [b_start.(b)] to
         [b_start.(b + 1)]) holds the edges of the group pair [b_key.(b)
         = g1 * n_groups + g2], sorted, least edge first, and the buckets
         ascend by group pair. *)
      let m = Graph.n_edges g in
      let src_of = Array.make m 0 and dst_of = Array.make m 0 in
      for u = 0 to n - 1 do
        let base = Graph.edge_base g u in
        Array.iteri
          (fun i v ->
            src_of.(base + i) <- u;
            dst_of.(base + i) <- v)
          (Graph.succ g u)
      done;
      let src = Array.get src_of and dst = Array.get dst_of in
      let prefix_sums a =
        for k = 1 to Array.length a - 1 do
          a.(k) <- a.(k) + a.(k - 1)
        done
      in
      let by_src = Array.make (n_groups + 1) 0 in
      let by_dst = Array.make (n_groups + 1) 0 in
      for u = 0 to n - 1 do
        let succ = Graph.succ g u in
        let k = group_of.(u) + 1 in
        by_src.(k) <- by_src.(k) + Array.length succ;
        for i = 0 to Array.length succ - 1 do
          let k = group_of.(succ.(i)) + 1 in
          by_dst.(k) <- by_dst.(k) + 1
        done
      done;
      prefix_sums by_src;
      prefix_sums by_dst;
      let by_target = Array.make m 0 in
      for e = 0 to m - 1 do
        let k = group_of.(dst e) in
        by_target.(by_dst.(k)) <- e;
        by_dst.(k) <- by_dst.(k) + 1
      done;
      let order = Array.make m 0 in
      for i = 0 to m - 1 do
        let e = by_target.(i) in
        let k = group_of.(src e) in
        order.(by_src.(k)) <- e;
        by_src.(k) <- by_src.(k) + 1
      done;
      (* one walk to count the buckets, one to record them *)
      let walk_buckets f =
        let prev = ref (-1) in
        for i = 0 to m - 1 do
          let e = order.(i) in
          let key = (group_of.(src e) * n_groups) + group_of.(dst e) in
          if key <> !prev then begin
            f key i;
            prev := key
          end
        done
      in
      let n_buckets = ref 0 in
      walk_buckets (fun _ _ -> incr n_buckets);
      let n_buckets = !n_buckets in
      let b_key = Array.make n_buckets 0 in
      let b_start = Array.make (n_buckets + 1) m in
      let b = ref 0 in
      walk_buckets (fun key i ->
          b_key.(!b) <- key;
          b_start.(!b) <- i;
          incr b);
      (* the first bucket whose group pair is [key] or above: the
         buckets of source group [g1] run from [lower_bound (g1 *
         n_groups)] to [lower_bound ((g1 + 1) * n_groups)] *)
      let lower_bound key =
        let rec search lo hi =
          if lo >= hi then lo
          else
            let mid = (lo + hi) / 2 in
            if b_key.(mid) < key then search (mid + 1) hi else search lo mid
        in
        search 0 n_buckets
      in
      let bucket_of g1 g2 =
        let key = (g1 * n_groups) + g2 in
        let b = lower_bound key in
        if b < n_buckets && b_key.(b) = key then b else -1
      in
      (* -- ∀∃1 plus completeness: the certificate may neither omit nor
         invent an abstract edge. Abstract ids are laid out by group and
         copy, so walking (group, copy, bucket, copy) yields the expected
         edges ascending, and one merge against the sorted claim finds
         both kinds of failure. *)
      let claimed =
        List.filter_map
          (fun (a, b) ->
            if a = b then begin
              fail "self-loop-free" (Printf.sprintf "abstract loop at %d" a);
              None
            end
            else if a < 0 || b < 0 || a >= n_abs || b >= n_abs then begin
              fail "abs-edges"
                (Printf.sprintf "abstract edge (%d,%d) out of range" a b);
              None
            end
            else Some ((a * n_abs) + b))
          c.c_abs_edges
        |> List.sort_uniq Int.compare |> Array.of_list
      in
      let pos = ref 0 and phantoms = ref [] in
      let phantom_below key =
        while !pos < Array.length claimed && claimed.(!pos) < key do
          phantoms := claimed.(!pos) :: !phantoms;
          incr pos
        done
      in
      for g1 = 0 to n_groups - 1 do
        let first = lower_bound (g1 * n_groups)
        and last = lower_bound ((g1 + 1) * n_groups) in
        for i = 0 to copies_claim.(g1) - 1 do
          for b = first to last - 1 do
            let g2 = b_key.(b) mod n_groups in
            for j = 0 to copies_claim.(g2) - 1 do
              let a1 = abs_of_group.(g1) + i and a2 = abs_of_group.(g2) + j in
              if a1 <> a2 then begin
                let key = (a1 * n_abs) + a2 in
                phantom_below key;
                if !pos < Array.length claimed && claimed.(!pos) = key then
                  incr pos
                else
                  fail "forall-exists-1"
                    (Printf.sprintf
                       "concrete edges map to abstract (%d,%d) but the \
                        certificate omits it"
                       a1 a2)
              end
            done
          done
        done
      done;
      phantom_below max_int;
      List.iter
        (fun key ->
          fail "phantom-edge"
            (Printf.sprintf "certificate edge (%d,%d) has no concrete witness"
               (key / n_abs) (key mod n_abs)))
        (List.rev !phantoms);
      (* -- ∀∃2 and transfer agreement per inter-group bucket ---------- *)
      let table =
        Compile.signature_table ~universe net ~dest:ec.Ecs.ec_prefix
      in
      let probes = probe_attrs universe in
      let policy = Compile.bgp_policy net ~dest:ec.Ecs.ec_prefix in
      (* [stamp.(u) = b]: [u] is a source of an edge in bucket [b] *)
      let stamp = Array.make n (-1) in
      for b = 0 to n_buckets - 1 do
        let g1 = b_key.(b) / n_groups and g2 = b_key.(b) mod n_groups in
        let lo = b_start.(b) and hi = b_start.(b + 1) in
        if g1 <> g2 then begin
          for i = lo to hi - 1 do
            stamp.(src order.(i)) <- b
          done;
          (* ∀∃2: every member must keep an edge into g2 *)
          List.iter
            (fun u ->
              tick ();
              obligation ();
              if stamp.(u) <> b then
                fail "forall-exists-2"
                  (Printf.sprintf "%s (group %d) has no edge into group %d"
                     (name u) g1 g2))
            (sample_list audit groups.(g1));
          (* transfer agreement: recomputed signature ids in the fresh
             universe, anchored at the least edge of the bucket *)
          let u0 = src order.(lo) and v0 = dst order.(lo) in
          let s0 = table.Compile.sid order.(lo) in
          tick ();
          sample_range audit (lo + 1) hi (fun i ->
              let u = src order.(i) and v = dst order.(i) in
              tick ();
              obligation ();
              if not (Int.equal s0 (table.Compile.sid order.(i))) then
                fail "transfer-equivalence"
                  (Printf.sprintf
                     "edges (%s,%s) and (%s,%s) map to one abstract edge but \
                      differ in signature"
                     (name u0) (name v0) (name u) (name v)));
          (* BDD-free spot check: execute the route maps directly *)
          let pol0 = policy u0 v0 in
          sample_range Sample (lo + 1) hi (fun i ->
              let u = src order.(i) and v = dst order.(i) in
              let pol = policy u v in
              List.iter
                (fun a ->
                  tick ();
                  obligation ();
                  if not (opt_attr_equal universe (pol0 a) (pol a)) then
                    fail "transfer-equivalence"
                      (Printf.sprintf
                         "route maps of (%s,%s) and (%s,%s) disagree on a \
                          probe announcement (lp %d)"
                         (name u0) (name v0) (name u) (name v) a.Bgp.lp))
                probes)
        end
      done;
      (* claimed edge representatives must be the least concrete edge *)
      let group_of_abs = Array.make n_abs 0 in
      Array.iteri
        (fun gid start ->
          Array.fill group_of_abs start (max 1 copies_claim.(gid)) gid)
        abs_of_group;
      List.iter
        (fun ((a1, a2), (un, vn)) ->
          tick ();
          if a1 >= 0 && a1 < n_abs && a2 >= 0 && a2 < n_abs then begin
            let b = bucket_of group_of_abs.(a1) group_of_abs.(a2) in
            if b < 0 then
              fail "edge-repr"
                (Printf.sprintf
                   "abstract edge (%d,%d) claims representative (%s,%s) but \
                    no concrete edge maps onto it"
                   a1 a2 un vn)
            else
              let e0 = order.(b_start.(b)) in
              match (Graph.find_by_name g un, Graph.find_by_name g vn) with
              | Some u, Some v when u = src e0 && v = dst e0 -> ()
              | _ ->
                fail "edge-repr"
                  (Printf.sprintf
                     "abstract edge (%d,%d): (%s,%s) is not the least \
                      concrete edge of the class"
                     a1 a2 un vn)
          end)
        (sample_list audit c.c_edge_reprs);
      (* ∀∀ identical neighborhoods for split groups *)
      Array.iteri
        (fun gid members ->
          if copies_claim.(gid) > 1 then begin
            let nbrs u =
              Array.to_list (Graph.succ g u) |> List.sort_uniq Int.compare
            in
            match members with
            | [] -> ()
            | m0 :: rest ->
              let n0 = nbrs m0 in
              List.iter
                (fun u ->
                  tick ();
                  obligation ();
                  if not (int_list_equal (nbrs u) n0) then
                    fail "forall-forall"
                      (Printf.sprintf
                         "split group %d: %s and %s have different \
                          neighborhoods"
                         gid (name m0) (name u)))
                (sample_list audit rest)
          end)
        groups;
      (* -- labeling stability --------------------------------------- *)
      match c.c_labels with
      | None -> ()
      | Some (Json.List entries) ->
        if List.length entries <> n_abs then
          fail "labeling"
            (Printf.sprintf "labeling has %d entries, abstract graph has %d"
               (List.length entries) n_abs)
        else (
          match map_result attr_of_json entries with
          | Error e -> fail "labeling" e
          | Ok labels ->
            tick ();
            (* rebuild the quotient from the certificate alone (fresh
               universe — the engine's manager is not consulted) *)
            let partition = Union_split_find.of_class_array group_of in
            let copies m = List.length prefs_claim.(group_of.(m)) in
            let t =
              Abstraction.make net ~dest ~dest_prefix:ec.Ecs.ec_prefix
                ~universe ~partition ~copies
            in
            if Abstraction.n_abstract t <> n_abs then
              fail "labeling" "rebuilt abstract graph size differs"
            else begin
              let sol =
                Solution.of_labels (Abstraction.bgp_srp t)
                  (Array.of_list labels)
              in
              obligation ();
              if not (Solution.is_stable sol) then
                let why =
                  match Solution.stability_violations sol with
                  | (node, why) :: _ ->
                    Printf.sprintf " (abstract node %d: %s)" node why
                  | [] -> ""
                in
                fail "labeling-stability"
                  ("claimed labeling is not a stable solution" ^ why)
            end)
      | Some _ -> fail "labeling" "labels: expected a list"
    end)

let check ?(budget = Budget.infinite) ?universe ~audit (net : Device.network)
    (t : t) =
  let failures = ref [] in
  let count = ref 0 in
  let add prefix cond detail =
    incr count;
    if !count > max_failures then raise Refutation_overflow;
    failures :=
      { f_prefix = prefix; f_condition = cond; f_detail = detail }
      :: !failures
  in
  let obligations = ref 0 in
  let finish () =
    match List.rev !failures with
    | [] ->
      Certified { ecs = List.length t.certs; obligations = !obligations }
    | fs -> Refuted fs
  in
  match
    let universe =
      match universe with
      | Some u -> u
      | None -> Policy_bdd.universe_of_network net
    in
    List.iter
      (fun c -> check_cert ~budget ~audit ~universe ~obligations net c add)
      t.certs
  with
  | () -> finish ()
  | exception Refutation_overflow -> finish ()
  | exception Budget.Exhausted info ->
    (* never report "certified" on a truncated audit — but a refutation
       found before the budget died still stands *)
    (match List.rev !failures with
    | [] -> Audit_incomplete info
    | fs -> Refuted fs)

let check_result ?budget ?universe ~audit net (r : Bonsai_api.ec_result) =
  match of_ec_result net r with
  | c -> check ?budget ?universe ~audit net { network = ""; certs = [ c ] }
  | exception (Budget.Exhausted _ as e) -> raise e
  | exception e ->
    (* a state too corrupted to even export a witness is refuted, not a
       crash — this is the resident engine's self-audit path *)
    Refuted
      [
        {
          f_prefix = Prefix.to_string r.Bonsai_api.ec.Ecs.ec_prefix;
          f_condition = "emission";
          f_detail = Printexc.to_string e;
        };
      ]

let check_summary ?budget ~audit net (s : Bonsai_api.summary) =
  try
    let universe = Policy_bdd.universe_of_network net in
    let rec go obligations = function
      | [] ->
        Certified { ecs = List.length s.Bonsai_api.results; obligations }
      | r :: rest -> (
        match check_result ?budget ~universe ~audit net r with
        | Certified { obligations = o; _ } -> go (obligations + o) rest
        | (Refuted _ | Audit_incomplete _) as v -> v)
    in
    go 0 s.Bonsai_api.results
  with Budget.Exhausted info -> Audit_incomplete info

let failures_string fs =
  String.concat "; "
    (List.map
       (fun f ->
         Printf.sprintf "%s: %s: %s" f.f_prefix f.f_condition f.f_detail)
       fs)

let pp_verdict ppf = function
  | Certified { ecs; obligations } ->
    Format.fprintf ppf "certified (%d class%s, %d obligations checked)" ecs
      (if ecs = 1 then "" else "es")
      obligations
  | Refuted fs ->
    Format.fprintf ppf "REFUTED (%d failure%s):" (List.length fs)
      (if List.length fs = 1 then "" else "s");
    List.iter
      (fun f ->
        Format.fprintf ppf "@,  %s %s: %s" f.f_prefix f.f_condition f.f_detail)
      fs
  | Audit_incomplete info ->
    Format.fprintf ppf
      "audit incomplete: budget exhausted in %s after %d ticks"
      info.Budget.phase info.Budget.ticks
