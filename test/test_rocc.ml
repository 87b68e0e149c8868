(* RoCC instruction format, custom command packing, and C++ codegen. *)

module B = Beethoven

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_i64 = Alcotest.(check int64)

let test_rocc_roundtrip_basic () =
  let cmd =
    {
      B.Rocc.system_id = 3;
      core_id = 17;
      funct = 5;
      expects_response = true;
      payload1 = 0xDEADBEEFL;
      payload2 = Int64.min_int;
    }
  in
  let decoded = B.Rocc.decode (B.Rocc.encode cmd) in
  check_bool "roundtrip" true (decoded = cmd)

let test_rocc_width () =
  let cmd =
    {
      B.Rocc.system_id = 0;
      core_id = 0;
      funct = 0;
      expects_response = false;
      payload1 = 0L;
      payload2 = 0L;
    }
  in
  check_int "wire width" B.Rocc.width (Bits.width (B.Rocc.encode cmd))

let test_rocc_field_limits () =
  let base =
    {
      B.Rocc.system_id = 255;
      core_id = 1023;
      funct = 127;
      expects_response = true;
      payload1 = -1L;
      payload2 = -1L;
    }
  in
  check_bool "extreme values roundtrip" true
    (B.Rocc.decode (B.Rocc.encode base) = base);
  let bad = { base with B.Rocc.core_id = 1024 } in
  Alcotest.check_raises "core_id out of range"
    (Invalid_argument "Rocc: core_id = 1024 out of range [0, 1023]")
    (fun () -> ignore (B.Rocc.encode bad))

let test_rocc_rejects_non_custom () =
  let b = Bits.zero B.Rocc.width in
  let raised =
    try
      ignore (B.Rocc.decode b);
      false
    with Invalid_argument _ -> true
  in
  check_bool "zero opcode rejected" true raised

(* ---- Cmd_spec ---- *)

let vec_cmd =
  B.Cmd_spec.make ~name:"vec_add" ~funct:3 ~response_bits:32
    [
      ("addend", B.Cmd_spec.Uint 32);
      ("vec_addr", B.Cmd_spec.Address);
      ("n_eles", B.Cmd_spec.Uint 20);
    ]

let test_cmd_spec_layout () =
  check_int "beats" 1 (B.Cmd_spec.rocc_beats vec_cmd);
  let payload widths =
    B.Cmd_spec.make ~name:"p" ~funct:0
      (List.mapi
         (fun i w -> (Printf.sprintf "x%d" i, B.Cmd_spec.Uint w))
         widths)
  in
  check_int "128 payload bits fit one beat" 1
    (B.Cmd_spec.rocc_beats (payload [ 64; 64 ]));
  check_int "129 payload bits need two beats" 2
    (B.Cmd_spec.rocc_beats (payload [ 64; 64; 1 ]));
  let wide =
    B.Cmd_spec.make ~name:"wide" ~funct:0
      (List.init 5 (fun i -> (Printf.sprintf "a%d" i, B.Cmd_spec.Address)))
  in
  check_int "5 addresses need 3 beats" 3 (B.Cmd_spec.rocc_beats wide)

let test_cmd_spec_pack_unpack () =
  let values =
    [
      ("addend", 0xCAFEL);
      ("vec_addr", 0x123456789AL);
      ("n_eles", 1000L);
    ]
  in
  let packed = B.Cmd_spec.pack vec_cmd values in
  check_int "one beat" 1 (List.length packed);
  let unpacked = B.Cmd_spec.unpack vec_cmd packed in
  List.iter
    (fun (name, v) -> check_i64 name v (List.assoc name unpacked))
    values

let test_cmd_spec_validation () =
  Alcotest.check_raises "duplicate field"
    (Invalid_argument "Cmd_spec.make: duplicate field x") (fun () ->
      ignore
        (B.Cmd_spec.make ~name:"bad" ~funct:0
           [ ("x", B.Cmd_spec.Uint 8); ("x", B.Cmd_spec.Uint 8) ]));
  Alcotest.check_raises "over-wide value"
    (Invalid_argument "Cmd_spec.pack: value too wide for addend") (fun () ->
      ignore
        (B.Cmd_spec.pack vec_cmd
           [
             ("addend", 0x1_0000_0000L);
             ("vec_addr", 0L);
             ("n_eles", 0L);
           ]));
  Alcotest.check_raises "missing field"
    (Invalid_argument "Cmd_spec.pack: field set mismatch") (fun () ->
      ignore (B.Cmd_spec.pack vec_cmd [ ("addend", 0L) ]))

(* ---- Codegen ---- *)

let has haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec go i = i + n <= m && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_codegen_header () =
  let config = Kernels.Vecadd.config ~n_cores:2 () in
  let h = B.Codegen.header config in
  List.iter
    (fun s -> check_bool s true (has h s))
    [
      "namespace VecAdd";
      "response_handle<uint32_t> vec_add(";
      "int16_t core_idx";
      "uint32_t addend";
      "const remote_ptr & vec_addr";
      "uint32_t n_eles";
    ]

let test_codegen_stubs () =
  let config = Kernels.Vecadd.config () in
  let s = B.Codegen.stubs config in
  List.iter
    (fun needle -> check_bool needle true (has s needle))
    [
      "VecAdd::vec_add(";
      "p.push_bits((uint64_t)addend, 32)";
      "p.push_bits(vec_addr.device_address(), 64)";
      "send_command<uint32_t>";
    ]

(* ---- properties ---- *)

let prop name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:200 ~name arb f)

let arb_rocc =
  QCheck.make
    ~print:(fun c -> Printf.sprintf "sys=%d core=%d" c.B.Rocc.system_id c.B.Rocc.core_id)
    QCheck.Gen.(
      map
        (fun (sys, core, funct, xd, (p1, p2)) ->
          {
            B.Rocc.system_id = sys;
            core_id = core;
            funct;
            expects_response = xd;
            payload1 = p1;
            payload2 = p2;
          })
        (tup5 (0 -- 255) (0 -- 1023) (0 -- 127) bool (pair int64 int64)))

let props =
  [
    prop "rocc encode/decode roundtrip" arb_rocc (fun c ->
        B.Rocc.decode (B.Rocc.encode c) = c);
    prop "cmd_spec pack/unpack roundtrip"
      QCheck.(
        list_of_size Gen.(1 -- 10)
          (pair (int_bound 62) (int_bound 1_000_000)))
      (fun fields ->
        (* build a command with the generated widths, pack masked values *)
        let fields =
          List.mapi
            (fun i (w, v) ->
              let w = max 1 w + 1 in
              let name = Printf.sprintf "f%d" i in
              let v = Int64.of_int (v land ((1 lsl min w 30) - 1)) in
              (name, w, v))
            fields
        in
        let total =
          List.fold_left (fun acc (_, w, _) -> acc + w) 0 fields
        in
        QCheck.assume (total <= 8 * 128);
        let cmd =
          B.Cmd_spec.make ~name:"t" ~funct:1
            (List.map (fun (n, w, _) -> (n, B.Cmd_spec.Uint w)) fields)
        in
        let values = List.map (fun (n, _, v) -> (n, v)) fields in
        let packed = B.Cmd_spec.pack cmd values in
        (* the behavior-side decoder reads the same fields back from the
           reassembled RoCC beats *)
        let beats =
          List.map
            (fun (payload1, payload2) ->
              { B.Rocc.system_id = 0; core_id = 0; funct = 1;
                expects_response = false; payload1; payload2 })
            packed
        in
        let field = B.Cmd_spec.decode cmd beats in
        B.Cmd_spec.unpack cmd packed = values
        && List.for_all (fun (n, v) -> field n = Int64.to_int v) values);
  ]

let () =
  Alcotest.run "rocc"
    [
      ( "rocc",
        [
          Alcotest.test_case "roundtrip" `Quick test_rocc_roundtrip_basic;
          Alcotest.test_case "width" `Quick test_rocc_width;
          Alcotest.test_case "field limits" `Quick test_rocc_field_limits;
          Alcotest.test_case "non-custom rejected" `Quick
            test_rocc_rejects_non_custom;
        ] );
      ( "cmd_spec",
        [
          Alcotest.test_case "layout" `Quick test_cmd_spec_layout;
          Alcotest.test_case "pack/unpack" `Quick test_cmd_spec_pack_unpack;
          Alcotest.test_case "validation" `Quick test_cmd_spec_validation;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "header" `Quick test_codegen_header;
          Alcotest.test_case "stubs" `Quick test_codegen_stubs;
        ] );
      ("properties", props);
    ]
