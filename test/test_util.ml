(* Union-split-find: unit tests and refinement laws. *)

let test_create_single_class () =
  let t = Union_split_find.create 5 in
  Alcotest.(check int) "classes" 1 (Union_split_find.num_classes t);
  Alcotest.(check int) "length" 5 (Union_split_find.length t);
  for i = 0 to 4 do
    Alcotest.(check int) "same class" (Union_split_find.find t 0)
      (Union_split_find.find t i)
  done

let test_create_empty () =
  let t = Union_split_find.create 0 in
  Alcotest.(check int) "classes" 0 (Union_split_find.num_classes t)

let test_split_basic () =
  let t = Union_split_find.create 6 in
  let c = Union_split_find.split t [ 1; 3 ] in
  Alcotest.(check int) "classes" 2 (Union_split_find.num_classes t);
  Alcotest.(check (list int)) "members" [ 1; 3 ] (Union_split_find.members t c);
  Alcotest.(check bool) "others unchanged" true
    (Union_split_find.find t 0 = Union_split_find.find t 2)

let test_split_whole_class_noop () =
  let t = Union_split_find.create 3 in
  let c0 = Union_split_find.find t 0 in
  let c = Union_split_find.split t [ 0; 1; 2 ] in
  Alcotest.(check int) "same id" c0 c;
  Alcotest.(check int) "classes" 1 (Union_split_find.num_classes t)

let test_split_rejects_cross_class () =
  let t = Union_split_find.create 4 in
  ignore (Union_split_find.split t [ 0 ]);
  Alcotest.check_raises "cross-class" (Invalid_argument
    "Union_split_find.split: elements span several classes") (fun () ->
      ignore (Union_split_find.split t [ 0; 1 ]))

let test_split_rejects_duplicates () =
  let t = Union_split_find.create 4 in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Union_split_find.split: duplicate element") (fun () ->
      ignore (Union_split_find.split t [ 1; 1 ]))

(* Refinement by a key is [split_off] with the members grouped by that
   key; [by_key] groups a class the way the refinement kernel does. *)
let by_key t c key =
  let ms = Union_split_find.members t c in
  List.sort_uniq Int.compare (List.map key ms)
  |> List.map (fun k -> List.filter (fun x -> key x = k) ms)

let test_refine_by_parity () =
  let t = Union_split_find.create 10 in
  let c = Union_split_find.find t 0 in
  let fresh = Union_split_find.split_off t ~cls:c (by_key t c (fun x -> x mod 2)) in
  Alcotest.(check int) "one new class" 1 (List.length fresh);
  Alcotest.(check int) "classes" 2 (Union_split_find.num_classes t);
  Alcotest.(check bool) "evens together" true
    (Union_split_find.find t 0 = Union_split_find.find t 8);
  Alcotest.(check bool) "odd/even apart" true
    (Union_split_find.find t 0 <> Union_split_find.find t 1)

let test_refine_stable_when_uniform () =
  let t = Union_split_find.create 8 in
  let c = Union_split_find.find t 0 in
  let fresh = Union_split_find.split_off t ~cls:c (by_key t c (fun _ -> 0)) in
  Alcotest.(check (list int)) "no change" [] fresh

let test_canonical_and_equal () =
  let a = Union_split_find.create 6 in
  let b = Union_split_find.create 6 in
  ignore (Union_split_find.split a [ 0; 2 ]);
  ignore (Union_split_find.split b [ 4; 5; 1; 3 ]);
  (* complementary splits of the same set: partitions coincide *)
  Alcotest.(check bool) "equal partitions" true (Union_split_find.equal a b)

let test_class_ids_cover_everything () =
  let t = Union_split_find.create 12 in
  ignore (Union_split_find.split t [ 1; 5; 7 ]);
  ignore (Union_split_find.split t [ 2 ]);
  let total =
    List.fold_left
      (fun acc c -> acc + Union_split_find.class_size t c)
      0 (Union_split_find.class_ids t)
  in
  Alcotest.(check int) "sizes sum to n" 12 total

let test_out_of_range_errors () =
  let t = Union_split_find.create 3 in
  Alcotest.check_raises "find oob"
    (Invalid_argument "Union_split_find: element out of range") (fun () ->
      ignore (Union_split_find.find t 3));
  Alcotest.check_raises "dead class"
    (Invalid_argument "Union_split_find: dead class id") (fun () ->
      ignore (Union_split_find.members t 99));
  Alcotest.check_raises "negative size"
    (Invalid_argument "Union_split_find.create: negative size") (fun () ->
      ignore (Union_split_find.create (-1)))

let test_to_class_array_and_refine () =
  let t = Union_split_find.create 6 in
  let refine_each () =
    List.concat_map
      (fun c -> Union_split_find.split_off t ~cls:c (by_key t c (fun x -> x mod 3)))
      (Union_split_find.class_ids t)
  in
  ignore (refine_each ());
  let arr = Union_split_find.to_class_array t in
  Alcotest.(check int) "array length" 6 (Array.length arr);
  Alcotest.(check bool) "classes by residue" true
    (arr.(0) = arr.(3) && arr.(1) = arr.(4) && arr.(0) <> arr.(1));
  Alcotest.(check bool) "refine stable after" true (refine_each () = [])

let test_timing () =
  let r, t = Timing.time (fun () -> 42) in
  Alcotest.(check int) "result" 42 r;
  Alcotest.(check bool) "non-negative" true (t >= 0.0);
  Alcotest.(check bool) "time_ignore" true (Timing.time_ignore (fun () -> ()) >= 0.0)

(* qcheck: refinement laws *)

let gen_ops =
  QCheck.make
    QCheck.Gen.(
      pair (int_range 1 40)
        (list_size (int_range 0 8) (list_size (int_range 1 5) (int_range 0 39))))

let prop_splits_refine =
  QCheck.Test.make ~name:"splits only refine (never merge)" ~count:200 gen_ops
    (fun (n, splitss) ->
      let t = Union_split_find.create n in
      let snapshots = ref [ Union_split_find.canonical t ] in
      List.iter
        (fun xs ->
          let xs = List.sort_uniq compare (List.filter (fun x -> x < n) xs) in
          match xs with
          | [] -> ()
          | x :: rest ->
            let c = Union_split_find.find t x in
            let same_class = List.filter (fun y -> Union_split_find.find t y = c) rest in
            ignore (Union_split_find.split t (x :: same_class));
            snapshots := Union_split_find.canonical t :: !snapshots)
        splitss;
      (* each snapshot refines the previous: same canonical class implies
         same class earlier *)
      let rec check = function
        | later :: (earlier :: _ as rest) ->
          let ok = ref true in
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              if later.(i) = later.(j) && earlier.(i) <> earlier.(j) then
                ok := false
            done
          done;
          !ok && check rest
        | _ -> true
      in
      check !snapshots)

let prop_refine_groups_by_key =
  QCheck.Test.make ~name:"refine groups exactly by key" ~count:200
    QCheck.(pair (int_range 1 50) (int_range 1 5))
    (fun (n, k) ->
      let t = Union_split_find.create n in
      let c = Union_split_find.find t 0 in
      ignore (Union_split_find.split_off t ~cls:c (by_key t c (fun x -> x mod k)));
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let same = Union_split_find.find t i = Union_split_find.find t j in
          if same <> (i mod k = j mod k) then ok := false
        done
      done;
      !ok)

let () =
  Alcotest.run "util"
    [
      ( "union-split-find",
        [
          Alcotest.test_case "create" `Quick test_create_single_class;
          Alcotest.test_case "create empty" `Quick test_create_empty;
          Alcotest.test_case "split" `Quick test_split_basic;
          Alcotest.test_case "split whole = noop" `Quick test_split_whole_class_noop;
          Alcotest.test_case "split cross-class rejected" `Quick
            test_split_rejects_cross_class;
          Alcotest.test_case "split duplicates rejected" `Quick
            test_split_rejects_duplicates;
          Alcotest.test_case "refine by parity" `Quick test_refine_by_parity;
          Alcotest.test_case "refine uniform stable" `Quick
            test_refine_stable_when_uniform;
          Alcotest.test_case "canonical equality" `Quick test_canonical_and_equal;
          Alcotest.test_case "class ids cover" `Quick test_class_ids_cover_everything;
          Alcotest.test_case "errors" `Quick test_out_of_range_errors;
          Alcotest.test_case "class array / refine" `Quick
            test_to_class_array_and_refine;
          Alcotest.test_case "timing" `Quick test_timing;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_splits_refine; prop_refine_groups_by_key ] );
    ]
