(* Tests for lib/certify: the certificate round trip, acceptance of
   engine-produced certificates (the checker must never refute a correct
   answer), and refutation of a table of deliberate mutations — merged
   classes, a moved node, a swapped representative, an altered labeling,
   a phantom abstract edge, a non-least edge representative. The QCheck acceptance property runs under
   the @fuzz alias and scales with FUZZ_COUNT. *)

let fuzz_count =
  match Option.bind (Sys.getenv_opt "FUZZ_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 25

let compress_exn net =
  match Bonsai_api.compress net with
  | Ok s -> s
  | Error e -> Alcotest.failf "compress failed: %s" (Bonsai_error.to_string e)

let cert_of net ~name =
  Certify.of_summary ~network:name net (compress_exn net)

let is_certified = function Certify.Certified _ -> true | _ -> false

let refuted_conditions = function
  | Certify.Refuted fs ->
    List.sort_uniq String.compare
      (List.map (fun f -> f.Certify.f_condition) fs)
  | _ -> []

let check_certified ?(audit = Certify.Full) net t what =
  match Certify.check ~audit net t with
  | Certify.Certified { obligations; _ } ->
    Alcotest.(check bool)
      (what ^ ": checked at least one obligation")
      true (obligations > 0)
  | v ->
    Alcotest.failf "%s: expected certified, got %s" what
      (Format.asprintf "%a" Certify.pp_verdict v)

(* --- acceptance ------------------------------------------------------- *)

let test_accept_ring () =
  let net = Synthesis.ring_bgp ~n:6 in
  let t = cert_of net ~name:"ring:6" in
  check_certified net t "ring:6 full";
  check_certified ~audit:Certify.Sample net t "ring:6 sample"

let test_accept_fattree () =
  let net = Synthesis.fattree_shortest_path (Generators.fattree ~k:4) in
  let t = cert_of net ~name:"fattree:4" in
  check_certified net t "fattree:4 full";
  check_certified ~audit:Certify.Sample net t "fattree:4 sample"

let test_accept_split_groups () =
  (* prefer-bottom policies give multi-preference groups (copies > 1),
     exercising the ∀∀ neighborhood condition *)
  let net = Synthesis.fattree_prefer_bottom (Generators.fattree ~k:4) in
  let t = cert_of net ~name:"fattree-prefer:4" in
  check_certified net t "fattree-prefer:4 full"

let test_accept_single_result () =
  let net = Synthesis.ring_bgp ~n:6 in
  let s = compress_exn net in
  let r = List.hd s.Bonsai_api.results in
  match Certify.check_result ~audit:Certify.Full net r with
  | Certify.Certified _ -> ()
  | v ->
    Alcotest.failf "check_result: expected certified, got %s"
      (Format.asprintf "%a" Certify.pp_verdict v)

(* --- round trip ------------------------------------------------------- *)

let test_json_roundtrip () =
  let net = Synthesis.ring_bgp ~n:6 in
  let t = cert_of net ~name:"ring:6" in
  let j = Certify.to_json t in
  (match Certify.of_json j with
  | Ok t' ->
    Alcotest.(check bool) "json round trip is exact" true
      (Json.equal j (Certify.to_json t'));
    check_certified net t' "reparsed certificate"
  | Error e -> Alcotest.failf "of_json failed: %s" e);
  (* and the serialized form survives the wire format *)
  match Json.parse (Json.to_string j) with
  | Ok j' -> Alcotest.(check bool) "string round trip" true (Json.equal j j')
  | Error e -> Alcotest.failf "reparse failed: %s" e

let test_of_json_rejects_garbage () =
  (match Certify.of_json (Json.Obj [ ("format", Json.String "nope") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an unknown format");
  match Certify.of_json (Json.String "not a certificate") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a non-object"

(* --- mutation table --------------------------------------------------- *)

(* Mutations work on the first class with at least 3 groups. *)
let first_cert t =
  match t.Certify.certs with
  | c :: _ -> c
  | [] -> Alcotest.fail "no classes in certificate"

let with_first_cert t f =
  match t.Certify.certs with
  | c :: rest -> { t with Certify.certs = f c :: rest }
  | [] -> Alcotest.fail "no classes in certificate"

let expect_refuted net t what =
  let v = Certify.check ~audit:Certify.Full net t in
  if is_certified v then Alcotest.failf "%s: mutated certificate accepted" what;
  (match v with
  | Certify.Audit_incomplete _ ->
    Alcotest.failf "%s: expected refutation, audit gave up" what
  | _ -> ());
  refuted_conditions v

(* Every failure's condition, in the order the checker reports them. *)
let ordered_conditions = function
  | Certify.Refuted fs -> List.map (fun f -> f.Certify.f_condition) fs
  | v ->
    Alcotest.failf "expected a refutation, got %s"
      (Format.asprintf "%a" Certify.pp_verdict v)

let ring_cert () =
  let net = Synthesis.ring_bgp ~n:6 in
  (net, cert_of net ~name:"ring:6")

let test_reject_merged_classes () =
  let net, t = ring_cert () in
  let c = first_cert t in
  (match c.Certify.c_groups with
  | g0 :: g1 :: g2 :: rest ->
    let merged =
      {
        c with
        Certify.c_groups = g0 :: (g1 @ g2) :: rest;
        c_reprs =
          (match c.Certify.c_reprs with
          | r0 :: r1 :: _ :: rs -> r0 :: r1 :: rs
          | rs -> rs);
        c_prefs =
          (match c.Certify.c_prefs with
          | p0 :: p1 :: _ :: ps -> p0 :: p1 :: ps
          | ps -> ps);
        c_copies =
          (match c.Certify.c_copies with
          | k0 :: k1 :: _ :: ks -> k0 :: k1 :: ks
          | ks -> ks);
      }
    in
    let conds =
      expect_refuted net
        (with_first_cert t (fun _ -> merged))
        "merged classes"
    in
    Alcotest.(check bool) "some condition failed" true (conds <> [])
  | _ -> Alcotest.fail "ring:6 cert has too few groups")

(* The moved-node report in checker order: partition, representatives,
   then ∀∃1, ∀∃2 by ascending group pair, edge representatives and the
   labeling. *)
let moved_node_conditions =
  [
    "partition"; "partition"; "partition"; "representative"; "representative";
    "forall-exists-1"; "forall-exists-1"; "forall-exists-2"; "forall-exists-2";
    "forall-exists-2"; "forall-exists-2"; "forall-exists-2"; "edge-repr";
    "edge-repr"; "edge-repr"; "edge-repr"; "labeling-stability";
  ]

let test_reject_moved_node () =
  (* the shape the serve self-audit must catch: a well-formed partition
     that puts one router in the wrong role *)
  let net, t = ring_cert () in
  let c = first_cert t in
  let moved =
    match c.Certify.c_groups with
    | g0 :: (m :: ms) :: g2 :: rest when ms <> [] ->
      { c with Certify.c_groups = g0 :: ms :: (g2 @ [ m ]) :: rest }
    | g0 :: g1 :: (m :: ms) :: rest when ms <> [] ->
      { c with Certify.c_groups = g0 :: (g1 @ [ m ]) :: ms :: rest }
    | _ -> Alcotest.fail "no multi-member group to move from"
  in
  let v = Certify.check ~audit:Certify.Full net (with_first_cert t (fun _ -> moved)) in
  Alcotest.(check (list string))
    "moved node: conditions in report order" moved_node_conditions
    (ordered_conditions v)

let test_reject_swapped_representative () =
  let net, t = ring_cert () in
  let c = first_cert t in
  (* find a group with >= 2 members and claim its second member *)
  let gid, second =
    let rec go i = function
      | (_ :: m2 :: _) :: _ -> (i, m2)
      | _ :: rest -> go (i + 1) rest
      | [] -> Alcotest.fail "no multi-member group"
    in
    go 0 c.Certify.c_groups
  in
  let swapped =
    {
      c with
      Certify.c_reprs =
        List.mapi
          (fun i r -> if i = gid then second else r)
          c.Certify.c_reprs;
    }
  in
  let conds =
    expect_refuted net
      (with_first_cert t (fun _ -> swapped))
      "swapped representative"
  in
  Alcotest.(check bool) "representative condition named" true
    (List.mem "representative" conds)

let test_reject_altered_labeling () =
  let net, t = ring_cert () in
  let c = first_cert t in
  let altered =
    match c.Certify.c_labels with
    | Some (Json.List entries) ->
      let bumped = ref false in
      let entries =
        List.map
          (fun e ->
            match (Json.member "lp" e, !bumped) with
            | Some (Json.Int lp), false ->
              bumped := true;
              (match e with
              | Json.Obj fields ->
                Json.Obj
                  (List.map
                     (fun (k, v) ->
                       if String.equal k "lp" then (k, Json.Int (lp + 7))
                       else (k, v))
                     fields)
              | _ -> e)
            | _ -> e)
          entries
      in
      if not !bumped then Alcotest.fail "no labeled abstract node to alter";
      { c with Certify.c_labels = Some (Json.List entries) }
    | _ -> Alcotest.fail "certificate carries no labeling"
  in
  let conds =
    expect_refuted net
      (with_first_cert t (fun _ -> altered))
      "altered labeling"
  in
  Alcotest.(check bool) "labeling condition named" true
    (List.exists (fun c -> String.equal c "labeling-stability") conds)

let test_reject_phantom_edge () =
  let net, t = ring_cert () in
  let c = first_cert t in
  let n_abs = List.length c.Certify.c_groups in
  (* a ring's role graph is a path; (0, n-1) closing the loop is absent *)
  let extra =
    if List.mem (0, n_abs - 1) c.Certify.c_abs_edges then (n_abs - 1, 0)
    else (0, n_abs - 1)
  in
  if List.mem extra c.Certify.c_abs_edges then
    Alcotest.fail "could not find a missing abstract edge to inject"
  else begin
    let phantom =
      { c with Certify.c_abs_edges = extra :: c.Certify.c_abs_edges }
    in
    let conds =
      expect_refuted net
        (with_first_cert t (fun _ -> phantom))
        "phantom edge"
    in
    Alcotest.(check bool) "phantom edge condition named" true
      (List.exists
         (fun c ->
           String.equal c "phantom-edge" || String.equal c "labeling")
         conds)
  end

let test_reject_non_least_edge_repr () =
  (* claim a concrete edge of the same group pair that is not the least:
     the transfer anchor must be the one the checker would pick *)
  let net, t = ring_cert () in
  let c = first_cert t in
  let g = net.Device.graph in
  let group_of name =
    let rec go i = function
      | ms :: rest -> if List.mem name ms then i else go (i + 1) rest
      | [] -> Alcotest.failf "%s is in no group" name
    in
    go 0 c.Certify.c_groups
  in
  let other_edge (un, vn) =
    let g1 = group_of un and g2 = group_of vn in
    List.find_map
      (fun (u, v) ->
        let u = Graph.name g u and v = Graph.name g v in
        if group_of u = g1 && group_of v = g2 && (u, v) <> (un, vn) then
          Some (u, v)
        else None)
      (Graph.edges g)
  in
  let rec mutate = function
    | [] -> Alcotest.fail "no abstract edge with two concrete edges"
    | (a, e) :: rest -> (
      match other_edge e with
      | Some e' -> (a, e') :: rest
      | None -> (a, e) :: mutate rest)
  in
  let moved = { c with Certify.c_edge_reprs = mutate c.Certify.c_edge_reprs } in
  let conds =
    expect_refuted net
      (with_first_cert t (fun _ -> moved))
      "non-least edge representative"
  in
  Alcotest.(check (list string)) "edge-repr is the condition" [ "edge-repr" ]
    conds

(* Network mutations: the first ring:6 certificate, honest for the network
   it was emitted from, is checked against a changed copy. Its class has
   roles {n0}, {n1,n5}, {n2,n4}, {n3}. *)
let first_ring_cert () =
  let net, t = ring_cert () in
  let c = first_cert t in
  Alcotest.(check (list (list string)))
    "ring:6 roles"
    [ [ "n0" ]; [ "n1"; "n5" ]; [ "n2"; "n4" ]; [ "n3" ] ]
    c.Certify.c_groups;
  (net, { t with Certify.certs = [ c ] })

let test_reject_changed_import () =
  (* n5, the non-representative member of {n1,n5}, also sets MED on
     import: its edges no longer transfer like n1's *)
  let net, t = first_ring_cert () in
  let n5 = Option.get (Graph.find_by_name net.Device.graph "n5") in
  let with_med = function
    | None ->
      Some [ { Route_map.verdict = Permit; conds = []; actions = [ Set_med 7 ] } ]
    | Some rm ->
      Some
        (List.map
           (fun (cl : Route_map.clause) ->
             { cl with Route_map.actions = cl.Route_map.actions @ [ Set_med 7 ] })
           rm)
  in
  let routers = Array.copy net.Device.routers in
  routers.(n5) <-
    {
      (routers.(n5)) with
      Device.bgp_neighbors =
        List.map
          (fun (v, (nb : Device.bgp_neighbor)) ->
            (v, { nb with Device.import_rm = with_med nb.Device.import_rm }))
          routers.(n5).Device.bgp_neighbors;
    };
  let v = Certify.check ~audit:Certify.Full { net with Device.routers } t in
  Alcotest.(check (list string)) "transfer-equivalence only"
    [ "transfer-equivalence" ]
    (List.sort_uniq String.compare (ordered_conditions v))

let test_reject_missing_edge () =
  (* without the n3-n4 link, n4 keeps no edge into {n3} while n2 does;
     every group pair keeps a concrete edge and its least edge *)
  let net, t = first_ring_cert () in
  let g = net.Device.graph in
  let id name = Option.get (Graph.find_by_name g name) in
  let cut = (id "n3", id "n4") in
  let b = Graph.Builder.create () in
  for u = 0 to Graph.n_nodes g - 1 do
    ignore (Graph.Builder.add_node b (Graph.name g u))
  done;
  List.iter
    (fun (u, v) ->
      if (u, v) <> cut && (v, u) <> cut then Graph.Builder.add_edge b u v)
    (Graph.edges g);
  let v =
    Certify.check ~audit:Certify.Full
      { net with Device.graph = Graph.Builder.build b }
      t
  in
  Alcotest.(check (list string)) "forall-exists-2 only" [ "forall-exists-2" ]
    (ordered_conditions v)

(* --- audit budget ----------------------------------------------------- *)

let test_audit_incomplete_never_certifies () =
  let net = Synthesis.ring_bgp ~n:6 in
  let t = cert_of net ~name:"ring:6" in
  let budget = Budget.create ~max_ticks:1 () in
  match Certify.check ~budget ~audit:Certify.Full net t with
  | Certify.Audit_incomplete _ -> ()
  | Certify.Certified _ ->
    Alcotest.fail "a starved audit must not report certified"
  | Certify.Refuted fs ->
    Alcotest.failf "starved audit refuted a good certificate: %s"
      (Certify.failures_string fs)

(* --- fuzz: the checker accepts whatever the engine emits -------------- *)

let qcheck_accepts =
  QCheck.Test.make ~count:fuzz_count
    ~name:"Certify.check accepts every engine-produced certificate"
    QCheck.(pair (int_range 4 9) (int_range 0 99))
    (fun (n, seed) ->
      let net =
        match seed mod 3 with
        | 0 -> Synthesis.ring_bgp ~n
        | 1 -> Synthesis.random_network ~n ~seed
        | _ -> Synthesis.mesh_bgp ~n:(min n 5)
      in
      let t = Certify.of_summary ~network:"fuzz" net (compress_exn net) in
      let audit = if seed mod 2 = 0 then Certify.Full else Certify.Sample in
      match Certify.check ~audit net t with
      | Certify.Certified _ -> true
      | v ->
        QCheck.Test.fail_reportf "refused a correct certificate: %a"
          Certify.pp_verdict v)

let fuzz_tests =
  List.map QCheck_alcotest.to_alcotest [ qcheck_accepts ]

let () =
  Alcotest.run "certify"
    [
      ( "accept",
        [
          Alcotest.test_case "ring" `Quick test_accept_ring;
          Alcotest.test_case "fattree" `Quick test_accept_fattree;
          Alcotest.test_case "split groups" `Quick test_accept_split_groups;
          Alcotest.test_case "single result" `Quick test_accept_single_result;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "json" `Quick test_json_roundtrip;
          Alcotest.test_case "garbage" `Quick test_of_json_rejects_garbage;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "merged classes" `Quick test_reject_merged_classes;
          Alcotest.test_case "moved node" `Quick test_reject_moved_node;
          Alcotest.test_case "swapped representative" `Quick
            test_reject_swapped_representative;
          Alcotest.test_case "altered labeling" `Quick
            test_reject_altered_labeling;
          Alcotest.test_case "phantom edge" `Quick test_reject_phantom_edge;
          Alcotest.test_case "non-least edge representative" `Quick
            test_reject_non_least_edge_repr;
          Alcotest.test_case "changed import" `Quick test_reject_changed_import;
          Alcotest.test_case "missing edge" `Quick test_reject_missing_edge;
        ] );
      ( "budget",
        [
          Alcotest.test_case "audit incomplete" `Quick
            test_audit_incomplete_never_certifies;
        ] );
      ("fuzz", fuzz_tests);
    ]
