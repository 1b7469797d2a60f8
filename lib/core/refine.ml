type stats = { iterations : int; splits : int; keyed : int }

let group_prefs ~prefs members =
  List.fold_left
    (List.fold_left (fun acc p -> if List.exists (Int.equal p) acc then acc else p :: acc))
    [] (List.map prefs members)
  |> List.sort Int.compare

(* Two-level interning: each directed edge's own signature once (one
   hash reaches every field of one signature), then the edge's (own,
   reverse) pair of ids through an int table. *)
let edge_keys g ~signature =
  let n_edges = Graph.n_edges g in
  let sid = Array.make n_edges (-1) and pid = Array.make n_edges (-1) in
  let singles = Hashtbl.create 64 and pairs = Hashtbl.create 64 in
  let intern tbl k =
    match Hashtbl.find_opt tbl k with
    | Some id -> id
    | None ->
      Hashtbl.add tbl k (Hashtbl.length tbl);
      Hashtbl.length tbl - 1
  in
  (* [e] is [-1] for the missing reverse of a one-way edge, so single ids
     stay below [2 * n_edges] *)
  let single e u v =
    if e >= 0 && sid.(e) < 0 then sid.(e) <- intern singles (signature u v);
    if e >= 0 then sid.(e) else intern singles (signature u v)
  in
  fun u i ->
    let e = Graph.edge_base g u + i and v = (Graph.succ g u).(i) in
    if pid.(e) < 0 then
      pid.(e) <-
        intern pairs ((single e u v * 2 * n_edges) + single (Graph.edge_index g v u) v u);
    pid.(e)

module Key_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = Array.length a = Array.length b && Array.for_all2 Int.equal a b
  let hash (a : t) = Array.fold_left (fun h x -> (h * 31) + x) 17 a
end)

(* Groups [xs] by key, in order of first appearance. *)
let group_by_key key xs =
  let tbl = Key_tbl.create 8 and groups = ref [] in
  List.iter
    (fun x ->
      let k = key x in
      match Key_tbl.find_opt tbl k with
      | Some g -> g := x :: !g
      | None ->
        let g = ref [ x ] in
        Key_tbl.add tbl k g;
        groups := g :: !groups)
    xs;
  List.rev_map ( ! ) !groups

let stabilise ?(budget = Budget.infinite) ~phase part ~succ ~pred ~edge_key
    ~concrete ~live_self =
  let n = Union_split_find.length part in
  let m = max n 1 and find x = Union_split_find.find part x in
  let size c = Union_split_find.class_size part c in
  let iterations = ref 0 and splits = ref 0 and keyed = ref 0 in
  (* Per class: frozen (keyed concretely, so its parts never split again)
     and its touched members, whose keys may have changed; a class is on
     the worklist while it has touched members. *)
  let frozen = Array.make m false and touched = Array.make m [] in
  let marked = Array.make m false and pending = Queue.create () in
  let mark w =
    let c = find w in
    if not (marked.(w) || frozen.(c) || size c = 1) then begin
      if touched.(c) = [] then Queue.add c pending;
      marked.(w) <- true;
      touched.(c) <- w :: touched.(c)
    end
  in
  (* [u]'s (edge signature, neighbor) pairs as ascending distinct codes;
     the neighbor is [v] itself in a concrete class, else its class id *)
  let key ~conc u =
    incr keyed;
    let vs = succ u in
    let k = Array.make (Array.length vs) 0 and len = ref 0 in
    for i = 0 to Array.length vs - 1 do
      let c = (edge_key u i * m) + if conc then vs.(i) else find vs.(i) in
      let j = ref !len in
      while !j > 0 && k.(!j - 1) > c do decr j done;
      if !j = 0 || k.(!j - 1) <> c then begin
        Array.blit k !j k (!j + 1) (!len - !j);
        k.(!j) <- c;
        incr len
      end
    done;
    if !len = Array.length k then k else Array.sub k 0 !len
  in
  (* Only members of fresh classes changed class id, so only their
     predecessors can have changed keys. *)
  let split c groups =
    let fresh = Union_split_find.split_off part ~cls:c groups in
    if fresh <> [] then incr splits;
    List.iter
      (fun f ->
        frozen.(f) <- frozen.(c);
        Union_split_find.iter_members part f (fun x -> Array.iter mark (pred x)))
      fresh
  in
  (* Untouched members keep their common key, which no touched member
     shares (each points into a class the untouched ones do not reach):
     only touched members need keys, and a lone one needs none. *)
  let drain () =
    while not (Queue.is_empty pending) do
      Budget.tick budget ~phase;
      Budget.check budget ~phase;
      incr iterations;
      let c = Queue.pop pending in
      let t = touched.(c) in
      touched.(c) <- [];
      List.iter (fun w -> marked.(w) <- false) t;
      split c (match t with [ _ ] -> [ t ] | _ -> group_by_key (key ~conc:frozen.(c)) t)
    done
  in
  (* Peel order: classes by smallest member, then the smallest offending
     member, so the choice does not depend on class-id history. *)
  let rec peel () =
    let canon = Union_split_find.canonical part and best = ref (-1) in
    for u = 0 to n - 1 do
      if (!best < 0 || canon.(u) < canon.(!best)) && size (find u) > 1 then
        Array.iter (fun v -> if find v = find u && live_self u v then best := u) (succ u)
    done;
    if !best >= 0 then begin
      split (find !best) [ [ !best ] ];
      drain ();
      peel ()
    end
  in
  (* every class starts queued and fully touched (a concrete one is keyed
     only then) *)
  List.iter
    (fun c ->
      let ms = Union_split_find.members part c in
      List.iter (fun w -> marked.(w) <- true) ms;
      touched.(c) <- ms;
      frozen.(c) <- concrete ms;
      Queue.add c pending)
    (Union_split_find.class_ids part);
  drain ();
  peel ();
  { iterations = !iterations; splits = !splits; keyed = !keyed }

let partition ?(live_self = fun _ _ -> false) ?(pinned = []) ?seed
    ?(budget = Budget.infinite) (net : Device.network) ~dest ~edge_key ~prefs
    =
  let g = net.Device.graph in
  let n = Graph.n_nodes g in
  let part = match seed with Some s -> s | None -> Union_split_find.create n in
  if Union_split_find.length part <> n then
    invalid_arg "Refine.partition: seed size mismatch";
  if n > 1 && not (Union_split_find.is_singleton part dest) then
    ignore (Union_split_find.split part [ dest ]);
  (* Pins seed the partition with forced singletons. Refinement only
     splits classes, so pinned nodes stay alone in the fixpoint, and a
     larger pin set always yields a (weakly) finer partition — the
     monotonicity the CEGAR repair loop (lib/repair) relies on. *)
  List.iter
    (fun u -> ignore (Union_split_find.pin part u))
    (List.sort_uniq Int.compare pinned);
  (* The key includes BOTH directions of each incident edge: a node is
     also characterized by how its neighbors treat routes from it (e.g.
     two upstreams are different roles when downstream import policies
     assign them different preferences, even though their own
     configurations agree). A class whose members carry several
     local-preference values keys on concrete neighbors (∀∀). *)
  match
    stabilise ~budget ~phase:"refine" part ~succ:(Graph.succ g)
      ~pred:(Graph.pred g) ~edge_key
      ~concrete:(fun ms -> List.compare_length_with (group_prefs ~prefs ms) 1 > 0)
      ~live_self
  with
  | stats -> (part, stats)
  | exception Budget.Exhausted info ->
    (* surface how far the fixpoint got: the degradation report prints
       the partition size reached when the budget ran out *)
    raise
      (Budget.Exhausted
         (Budget.with_note info
            (Printf.sprintf "partition had %d/%d classes"
               (Union_split_find.num_classes part) n)))

let find_partition ?live_self ?pinned ?seed ?budget (net : Device.network)
    ~dest ~signature ~prefs =
  partition ?live_self ?pinned ?seed ?budget net ~dest
    ~edge_key:(edge_keys net.Device.graph ~signature) ~prefs

(* Seeded refinement. [partition ~seed] only splits, so from
   the stale partition it reaches the coarsest STABLE refinement F of the
   seed under the new signatures — possibly finer than the true coarsest
   stable partition P' when the change allowed classes to re-merge. F
   being stable, each of its classes has a uniform signature key, so we
   run the same refinement on the QUOTIENT (one element per F-class, key
   taken from a representative member) and merge F-classes that share a
   quotient block. Both the lifted quotient fixpoint and P' are the
   coarsest stable coarsening of F refining {dest}|{pins}|rest, hence
   equal — the seeded result matches from-scratch exactly (DESIGN.md
   §12). Pinned classes enter the quotient as singletons and are never
   merged. *)
let quotient_merge part (net : Device.network) ~dest ~edge_key ~pinned
    ~budget =
  let g = net.Device.graph and qidx = Union_split_find.canonical part in
  (* quotient node = F-class index by smallest member, represented by that
     member and its out-edges *)
  let rep = Array.make (Union_split_find.num_classes part) 0 in
  for u = Array.length qidx - 1 downto 0 do rep.(qidx.(u)) <- u done;
  let succ = Array.map (fun u -> Array.map (Array.get qidx) (Graph.succ g u)) rep in
  let pred = Array.make (Array.length rep) [] in
  Array.iteri (fun i js -> Array.iter (fun j -> pred.(j) <- i :: pred.(j)) js) succ;
  let pred = Array.map Array.of_list pred in
  let q = Union_split_find.create (Array.length rep) in
  List.iter (fun u -> ignore (Union_split_find.pin q qidx.(u))) (dest :: pinned);
  ignore
    (stabilise ~budget ~phase:"quotient-merge" q ~succ:(Array.get succ)
       ~pred:(Array.get pred) ~edge_key:(fun i k -> edge_key rep.(i) k)
       ~concrete:(fun _ -> false) ~live_self:(fun _ _ -> false));
  Union_split_find.of_class_array (Array.map (Union_split_find.find q) qidx)
