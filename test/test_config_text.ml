(* The textual configuration format: parsing, printing, round-trips. *)

let nets_equal (a : Device.network) (b : Device.network) =
  Graph.n_nodes a.Device.graph = Graph.n_nodes b.Device.graph
  && Graph.edges a.Device.graph = Graph.edges b.Device.graph
  && Array.for_all2
       (fun (ra : Device.router) (rb : Device.router) ->
         ra.Device.name = rb.Device.name
         && ra.Device.bgp_neighbors = rb.Device.bgp_neighbors
         && ra.Device.ospf_links = rb.Device.ospf_links
         && ra.Device.ospf_area = rb.Device.ospf_area
         && ra.Device.static_routes = rb.Device.static_routes
         && ra.Device.acl_out = rb.Device.acl_out
         && ra.Device.originated = rb.Device.originated
         && ra.Device.redistribute = rb.Device.redistribute)
       a.Device.routers b.Device.routers

let roundtrip name net =
  let text = Config_text.print net in
  match Config_text.parse text with
  | Error e -> Alcotest.failf "%s: parse error: %s" name e
  | Ok net' ->
    Alcotest.(check bool) (name ^ ": round-trip") true (nets_equal net net')

let test_roundtrip_synthetics () =
  roundtrip "fattree" (Synthesis.fattree_shortest_path (Generators.fattree ~k:4));
  roundtrip "prefer-bottom"
    (Synthesis.fattree_prefer_bottom (Generators.fattree ~k:4));
  roundtrip "ring" (Synthesis.ring_bgp ~n:8);
  roundtrip "datacenter" (Synthesis.datacenter ()).Synthesis.net;
  roundtrip "wan" (Synthesis.wan ()).Synthesis.net

let test_roundtrip_emitted_abstract () =
  let net = Synthesis.fattree_shortest_path (Generators.fattree ~k:6) in
  let ec = List.hd (Ecs.compute net) in
  let t = (Bonsai_api.compress_ec_exn net ec).Bonsai_api.abstraction in
  roundtrip "emitted abstract configs" (Abstract_config.emit t)

let prop_roundtrip_random =
  QCheck.Test.make ~name:"print/parse round-trip on random networks" ~count:60
    QCheck.(pair (int_range 2 20) (int_range 0 1000))
    (fun (n, seed) ->
      let net = Synthesis.random_network ~n ~seed in
      match Config_text.parse (Config_text.print net) with
      | Ok net' -> nets_equal net net'
      | Error _ -> false)

let test_parse_small () =
  let text =
    {|# a two-router network
topology
  node a
  node b
  link a b

route-map TAG
  10 permit
    match community 65001:1 2
    set local-pref 350
    set community add 65001:3

router a
  bgp neighbor b import TAG
  originate 10.0.0.0/24

router b
  ospf area 2
  bgp neighbor a ibgp
  static 10.1.0.0/16 via a
  acl out a
    permit 10.0.0.0/8
    deny 0.0.0.0/0
  redistribute ospf-into-bgp
|}
  in
  match Config_text.parse text with
  | Error e -> Alcotest.fail e
  | Ok net ->
    Alcotest.(check int) "nodes" 2 (Graph.n_nodes net.Device.graph);
    let a = Option.get (Graph.find_by_name net.Device.graph "a") in
    let b = Option.get (Graph.find_by_name net.Device.graph "b") in
    let ra = net.Device.routers.(a) and rb = net.Device.routers.(b) in
    (match Device.bgp_neighbor_config ra b with
    | Some nb -> (
      Alcotest.(check bool) "not ibgp" false nb.Device.ibgp;
      match nb.Device.import_rm with
      | Some [ cl ] ->
        Alcotest.(check bool) "community parsed" true
          (cl.Route_map.conds
          = [ Route_map.Match_community [ (65001 lsl 16) lor 1; 2 ] ]);
        Alcotest.(check bool) "actions parsed" true
          (cl.Route_map.actions
          = [
              Route_map.Set_local_pref 350;
              Route_map.Add_community ((65001 lsl 16) lor 3);
            ])
      | _ -> Alcotest.fail "bad route-map")
    | None -> Alcotest.fail "missing neighbor");
    Alcotest.(check int) "ospf area" 2 rb.Device.ospf_area;
    Alcotest.(check bool) "ibgp" true
      (match Device.bgp_neighbor_config rb a with
      | Some nb -> nb.Device.ibgp
      | None -> false);
    Alcotest.(check int) "static" 1 (List.length rb.Device.static_routes);
    Alcotest.(check int) "acl rules" 2
      (match Device.acl_for rb a with Some acl -> List.length acl | None -> 0);
    Alcotest.(check (list bool)) "redistribute" [ true ]
      (List.map (fun r -> r = Multi.Ospf_into_bgp) rb.Device.redistribute)

let test_parse_errors () =
  let cases =
    [
      ("stray content", "  node a\n");
      ("unknown node in link", "topology\n  node a\n  link a b\n");
      ("unknown route-map", "topology\n  node a\nrouter a\n  bgp neighbor a import NOPE\n");
      ("bad prefix", "topology\n  node a\n  node b\n  link a b\nrouter a\n  originate 10.0.0.300/24\n");
      ("router not a node", "topology\n  node a\nrouter b\n");
      ("self loop", "topology\n  node a\n  link a a\n");
    ]
  in
  List.iter
    (fun (name, text) ->
      match Config_text.parse text with
      | Ok _ -> Alcotest.failf "%s: expected a parse error" name
      | Error _ -> ())
    cases

(* A [module NAME] line is an unknown router line like any other: one
   typed diagnostic on its own line, not a silently dropped annotation. *)
let test_module_line_rejected () =
  let text =
    "topology\n  node a\n  node b\n  link a b\nrouter a\n  module west\n\
     \  originate 10.0.0.0/24\n"
  in
  match Config_text.parse_full text with
  | Ok _ -> Alcotest.fail "module line accepted"
  | Error ds ->
    Alcotest.(check (list (pair int string)))
      "one diagnostic, on the module line"
      [ (6, "bad router line: module west") ]
      ds

let test_community_syntax () =
  Alcotest.(check (option int)) "plain" (Some 7)
    (Config_text.community_of_string "7");
  Alcotest.(check (option int)) "pair" (Some ((65001 lsl 16) lor 3))
    (Config_text.community_of_string "65001:3");
  Alcotest.(check (option int)) "bad" None
    (Config_text.community_of_string "65001:");
  Alcotest.(check string) "print pair" "65001:3"
    (Config_text.community_to_string ((65001 lsl 16) lor 3));
  Alcotest.(check string) "print plain" "42" (Config_text.community_to_string 42)

let test_parsed_network_compresses () =
  (* end-to-end: print a network, parse it back, compress the parse *)
  let net = Synthesis.fattree_shortest_path (Generators.fattree ~k:4) in
  match Config_text.parse (Config_text.print net) with
  | Error e -> Alcotest.fail e
  | Ok net' ->
    let ec = List.hd (Ecs.compute net') in
    let r = Bonsai_api.compress_ec_exn net' ec in
    Alcotest.(check int) "still 6 nodes" 6
      (Abstraction.n_abstract r.Bonsai_api.abstraction)

let test_save_load_file () =
  let net = Synthesis.random_network ~n:8 ~seed:5 in
  let path = Filename.temp_file "bonsai" ".conf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Config_text.save ~path net;
      match Config_text.load path with
      | Ok net' -> Alcotest.(check bool) "file round-trip" true (nets_equal net net')
      | Error e -> Alcotest.fail e);
  match Config_text.load "/nonexistent/bonsai.conf" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error for a missing file"

(* --- IOS-flavored rendering ------------------------------------------- *)

let contains hay needle = Astring_contains.contains hay needle

let test_ios_render () =
  let net = Synthesis.fattree_shortest_path (Generators.fattree ~k:4) in
  let cfg = Ios_print.router_config net 4 in
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" s) true
        (contains cfg s))
    [
      "hostname agg0_0";
      "router bgp 65004";
      "neighbor 10.254.0.1 remote-as 65000";
      "route-map RM_IN_0 permit 10";
      "ip prefix-list RM_IN_0_P10_0 seq 5 permit 10.0.0.0/8";
      "interface Ethernet0";
    ]

let test_ios_features () =
  let dc = (Synthesis.datacenter ()).Synthesis.net in
  let leaf = Option.get (Graph.find_by_name dc.Device.graph "leaf0_0") in
  let cfg = Ios_print.router_config dc leaf in
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" s) true
        (contains cfg s))
    [
      "ip route 10.100.0.0 255.255.255.0"; (* the static-route variant *)
      "ip access-list extended ACL_E0";
      "set community 1000 additive"; (* the unmatched tag *)
      "interface Loopback0";
    ];
  let wan = (Synthesis.wan ()).Synthesis.net in
  let agg = Option.get (Graph.find_by_name wan.Device.graph "pop0_r0") in
  let cfg = Ios_print.router_config wan agg in
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "wan contains %S" s) true
        (contains cfg s))
    [ "router ospf 1"; "redistribute ospf 1"; "redistribute bgp"; "ip ospf cost" ]

let test_ios_scale () =
  let dc = (Synthesis.datacenter ()).Synthesis.net in
  Alcotest.(check bool) "datacenter tens of thousands of lines" true
    (Ios_print.line_count dc > 20000)

let () =
  Alcotest.run "config-text"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "synthetics" `Quick test_roundtrip_synthetics;
          Alcotest.test_case "emitted abstract" `Quick
            test_roundtrip_emitted_abstract;
        ] );
      ( "parse",
        [
          Alcotest.test_case "small example" `Quick test_parse_small;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "module line rejected" `Quick
            test_module_line_rejected;
          Alcotest.test_case "community syntax" `Quick test_community_syntax;
          Alcotest.test_case "compresses" `Quick test_parsed_network_compresses;
          Alcotest.test_case "save/load file" `Quick test_save_load_file;
        ] );
      ( "ios",
        [
          Alcotest.test_case "rendering" `Quick test_ios_render;
          Alcotest.test_case "features" `Quick test_ios_features;
          Alcotest.test_case "scale" `Quick test_ios_scale;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_roundtrip_random ] );
    ]
