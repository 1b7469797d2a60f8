(* Array-based refinable partition (Valmari–Lehtinen): class [c] owns the
   slice [first.(c), past.(c)) of [elems], and [pos] inverts [elems], so
   moving k elements out of a class costs O(k). The live class ids are
   [0 .. count - 1]. *)
type t = {
  n : int;
  elems : int array;
  pos : int array;
  cls : int array;
  first : int array;
  past : int array;
  mutable count : int;
}

let create n =
  if n < 0 then invalid_arg "Union_split_find.create: negative size";
  let m = max n 1 in
  let past = Array.make m 0 in
  past.(0) <- n;
  { n; elems = Array.init m Fun.id; pos = Array.init m Fun.id;
    cls = Array.make m 0; first = Array.make m 0; past; count = min n 1 }

let length t = t.n
let num_classes t = t.count

let check_elt t x =
  if x < 0 || x >= t.n then invalid_arg "Union_split_find: element out of range"

let check_cls t c =
  if c < 0 || c >= t.count then invalid_arg "Union_split_find: dead class id"

let find t x =
  check_elt t x;
  t.cls.(x)

let class_size t c =
  check_cls t c;
  t.past.(c) - t.first.(c)

let iter_members t c f =
  check_cls t c;
  for i = t.first.(c) to t.past.(c) - 1 do
    f t.elems.(i)
  done

let members t c =
  let ms = ref [] in
  iter_members t c (fun x -> ms := x :: !ms);
  List.sort Int.compare !ms

let class_ids t = List.init t.count Fun.id

(* Moves the grouped elements to the tail of the slice, group by group, so
   the ungrouped rest is the head and each part is a contiguous sub-slice.
   The largest part keeps [cls]; the others become fresh classes by a
   boundary update and a relabel of their own members. A failed check
   leaves the slice permuted but the partition unchanged. *)
let split_off t ~cls groups =
  check_cls t cls;
  let hi = ref t.past.(cls) in
  let move x =
    check_elt t x;
    if t.cls.(x) <> cls then
      invalid_arg "Union_split_find.split: elements span several classes";
    if t.pos.(x) >= !hi then
      invalid_arg "Union_split_find.split: duplicate element";
    decr hi;
    let y = t.elems.(!hi) in
    t.elems.(t.pos.(x)) <- y;
    t.pos.(y) <- t.pos.(x);
    t.elems.(!hi) <- x;
    t.pos.(x) <- !hi
  in
  let parts =
    List.fold_left
      (fun parts g ->
        let top = !hi in
        List.iter move g;
        (!hi, top) :: parts)
      [] (List.rev groups)
  in
  let parts = List.filter (fun (lo, top) -> lo < top) ((t.first.(cls), !hi) :: parts) in
  let keep, _ =
    List.fold_left
      (fun (k, best) (lo, top) -> if top - lo > best then (lo, top - lo) else (k, best))
      (0, 0) parts
  in
  List.filter_map
    (fun (lo, top) ->
      let c = if lo = keep then cls else t.count in
      t.count <- max t.count (c + 1);
      t.first.(c) <- lo;
      t.past.(c) <- top;
      if c = cls then None
      else begin
        for i = lo to top - 1 do
          t.cls.(t.elems.(i)) <- c
        done;
        Some c
      end)
    parts

let of_class_array a =
  if Array.exists (fun c -> c < 0) a then
    invalid_arg "Union_split_find.of_class_array: negative class id";
  let t = create (Array.length a) in
  let groups = Array.make (Array.fold_left max (-1) a + 1) [] in
  for x = Array.length a - 1 downto 0 do
    groups.(a.(x)) <- x :: groups.(a.(x))
  done;
  if t.count > 0 then
    ignore (split_off t ~cls:0 (List.filter (( <> ) []) (Array.to_list groups)));
  t

let discrete n =
  if n < 0 then invalid_arg "Union_split_find.discrete: negative size";
  of_class_array (Array.init n Fun.id)

let split t xs =
  match xs with
  | [] -> invalid_arg "Union_split_find.split: empty subset"
  | x0 :: _ ->
    ignore (split_off t ~cls:(find t x0) [ xs ]);
    t.cls.(x0)

let pin t x = if class_size t (find t x) = 1 then t.cls.(x) else split t [ x ]
let is_singleton t x = class_size t (find t x) = 1
let to_class_array t = Array.sub t.cls 0 t.n

let canonical t =
  let remap = Array.make (max t.count 1) (-1) and next = ref 0 in
  Array.map
    (fun c ->
      if remap.(c) < 0 then begin
        remap.(c) <- !next;
        incr next
      end;
      remap.(c))
    (to_class_array t)

let equal a b = a.n = b.n && canonical a = canonical b
