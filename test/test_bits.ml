(* Unit + property tests for the Bits bitvector module. Properties check the
   arithmetic against OCaml's native integers on widths <= 62, and structural
   laws (slice/concat/reverse) on wider vectors. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* set bits, counted one by one through [Bits.bit] *)
let popcount b =
  List.length (List.filter (Bits.bit b) (List.init (Bits.width b) Fun.id))

let test_construction () =
  check_int "zero width" 16 (Bits.width (Bits.zero 16));
  check_bool "zero is zero" true (Bits.is_zero (Bits.zero 128));
  check_int "of_int roundtrip" 12345 (Bits.to_int (Bits.of_int ~width:20 12345));
  check_int "of_int truncates" 0b101 (Bits.to_int (Bits.of_int ~width:3 0b11101));
  check_int "one" 1 (Bits.to_int (Bits.one 64));
  check_int "ones width 5" 31 (Bits.to_int (Bits.ones 5));
  check_int "ones popcount 131" 131 (popcount (Bits.ones 131))

let test_strings () =
  check_string "bin" "1010" (Bits.to_bin_string (Bits.of_int ~width:4 10));
  check_int "of_bin" 10 (Bits.to_int (Bits.of_bin_string "1010"));
  check_int "of_bin underscore" 10 (Bits.to_int (Bits.of_bin_string "10_10"));
  check_string "hex" "deadbeef"
    (Bits.to_hex_string (Bits.of_hex_string ~width:32 "dead_beef"));
  check_string "hex wide" "00000000000000000001"
    (Bits.to_hex_string (Bits.of_int ~width:80 1));
  check_int "hex trunc" 0xf (Bits.to_int (Bits.of_hex_string ~width:4 "ff"))

let test_arith_edges () =
  let w = 8 in
  let a = Bits.of_int ~width:w 255 and b = Bits.of_int ~width:w 1 in
  check_int "overflow wraps" 0 (Bits.to_int (Bits.add a b));
  check_int "sub wraps" 255 (Bits.to_int (Bits.sub (Bits.zero w) b));
  check_int "neg" 246
    (Bits.to_int (Bits.sub (Bits.zero w) (Bits.of_int ~width:w 10)));
  check_int "mul trunc" ((255 * 255) land 255) (Bits.to_int (Bits.mul a a));
  let a16 = Bits.of_int ~width:16 255 in
  check_int "mul at double width" (255 * 255) (Bits.to_int (Bits.mul a16 a16));
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Bits.add: width mismatch (8 vs 9)") (fun () ->
      ignore (Bits.add a (Bits.zero 9)))

let test_wide_arith () =
  (* 2^100 + 2^100 = 2^101 *)
  let x = Bits.shift_left (Bits.one 128) 100 in
  let s = Bits.add x x in
  check_bool "bit 101" true (Bits.bit s 101);
  check_int "popcount" 1 (popcount s);
  (* (2^64 - 1)^2 at 128 bits *)
  let m = Bits.concat (Bits.zero 64) (Bits.ones 64) in
  let p = Bits.mul m m in
  check_string "wide square" "fffffffffffffffe0000000000000001"
    (Bits.to_hex_string p)

let test_signed () =
  check_int "to_signed neg" (-1) (Bits.to_signed_int (Bits.ones 16));
  check_int "to_signed pos" 5 (Bits.to_signed_int (Bits.of_int ~width:16 5));
  check_int "of_signed roundtrip" (-123)
    (Bits.to_signed_int (Bits.of_signed_int ~width:32 (-123)));
  check_int "sext" (-3)
    (Bits.to_signed_int (Bits.sext (Bits.of_signed_int ~width:4 (-3)) 32))

let test_structure () =
  let v = Bits.of_int ~width:12 0xabc in
  check_int "slice mid" 0xb (Bits.to_int (Bits.slice v ~hi:7 ~lo:4));
  check_int "concat" 0xabc
    (Bits.to_int
       (Bits.concat (Bits.of_int ~width:4 0xa) (Bits.of_int ~width:8 0xbc)));
  check_int "sext of a positive value" 0xabc
    (Bits.to_int (Bits.sext (Bits.concat (Bits.zero 1) v) 64));
  check_int "sext truncates" 0xbc (Bits.to_int (Bits.sext v 8));
  check_int "repeat" 0xaaaa (Bits.to_int (Bits.repeat (Bits.of_int ~width:4 0xa) 4));
  check_string "reverse" "0011"
    (Bits.to_bin_string (Bits.reverse (Bits.of_bin_string "1100")))

let test_shifts () =
  let v = Bits.of_int ~width:8 0b1001_0110 in
  check_int "sll" 0b0101_1000 (Bits.to_int (Bits.shift_left v 2));
  check_int "srl" 0b0010_0101 (Bits.to_int (Bits.shift_right v 2));
  check_int "sra keeps sign" 0b1110_0101
    (Bits.to_int (Bits.shift_right_arith v 2));
  check_int "shift off the end" 0 (Bits.to_int (Bits.shift_left v 8));
  check_int "sra all the way" 0xff
    (Bits.to_int (Bits.shift_right_arith v 100))

(* ---------- properties ---------- *)

let gen_wv =
  (* (width, value) with value < 2^width, width in 1..60 *)
  QCheck.Gen.(
    1 -- 60 >>= fun w ->
    map (fun v -> (w, v land ((1 lsl w) - 1))) (0 -- max_int))

let arb_wv = QCheck.make ~print:(fun (w, v) -> Printf.sprintf "w=%d v=%d" w v) gen_wv

let gen_pair =
  QCheck.Gen.(
    1 -- 60 >>= fun w ->
    let mask = (1 lsl w) - 1 in
    map2 (fun a b -> (w, a land mask, b land mask)) (0 -- max_int) (0 -- max_int))

let arb_pair =
  QCheck.make
    ~print:(fun (w, a, b) -> Printf.sprintf "w=%d a=%d b=%d" w a b)
    gen_pair

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:300 ~name arb f)

let props =
  [
    prop "add matches int" arb_pair (fun (w, a, b) ->
        let m = if w = 60 then (1 lsl 60) - 1 else (1 lsl w) - 1 in
        Bits.to_int (Bits.add (Bits.of_int ~width:w a) (Bits.of_int ~width:w b))
        = (a + b) land m);
    prop "sub matches int" arb_pair (fun (w, a, b) ->
        Bits.to_int (Bits.sub (Bits.of_int ~width:w a) (Bits.of_int ~width:w b))
        = (a - b) land ((1 lsl w) - 1));
    prop "mul matches int (<=30 bits)" arb_pair (fun (w, a, b) ->
        let w = min w 30 in
        let mask = (1 lsl w) - 1 in
        let a = a land mask and b = b land mask in
        Bits.to_int (Bits.mul (Bits.of_int ~width:w a) (Bits.of_int ~width:w b))
        = a * b land mask);
    prop "logic matches int" arb_pair (fun (w, a, b) ->
        let ba = Bits.of_int ~width:w a and bb = Bits.of_int ~width:w b in
        Bits.to_int (Bits.logand ba bb) = a land b
        && Bits.to_int (Bits.logor ba bb) = a lor b
        && Bits.to_int (Bits.logxor ba bb) = a lxor b);
    prop "compare matches int" arb_pair (fun (w, a, b) ->
        QCheck.( ==> ) true
          (Bits.compare (Bits.of_int ~width:w a) (Bits.of_int ~width:w b)
          = Int.compare a b));
    prop "lognot involution" arb_wv (fun (w, v) ->
        let b = Bits.of_int ~width:w v in
        Bits.equal (Bits.lognot (Bits.lognot b)) b);
    prop "neg is two's complement" arb_wv (fun (w, v) ->
        let b = Bits.of_int ~width:w v in
        Bits.is_zero (Bits.add b (Bits.sub (Bits.zero w) b)));
    prop "bin string roundtrip" arb_wv (fun (w, v) ->
        let b = Bits.of_int ~width:w v in
        Bits.equal (Bits.of_bin_string (Bits.to_bin_string b)) b);
    prop "hex string roundtrip" arb_wv (fun (w, v) ->
        let b = Bits.of_int ~width:w v in
        Bits.equal (Bits.of_hex_string ~width:w (Bits.to_hex_string b)) b);
    prop "slice . concat = id" arb_pair (fun (w, a, b) ->
        let ba = Bits.of_int ~width:w a and bb = Bits.of_int ~width:w b in
        let c = Bits.concat ba bb in
        Bits.equal (Bits.slice c ~hi:((2 * w) - 1) ~lo:w) ba
        && Bits.equal (Bits.slice c ~hi:(w - 1) ~lo:0) bb);
    prop "reverse involution" arb_wv (fun (w, v) ->
        let b = Bits.of_int ~width:w v in
        Bits.equal (Bits.reverse (Bits.reverse b)) b);
    prop "shift_left then right" arb_wv (fun (w, v) ->
        let b = Bits.of_int ~width:w v in
        let n = v mod (w + 1) in
        (* low n bits survive the round trip cleared *)
        Bits.to_int (Bits.shift_right (Bits.shift_left b n) n)
        = v land ((1 lsl (w - n)) - 1));
    prop "popcount sums over concat" arb_pair (fun (w, a, b) ->
        let ba = Bits.of_int ~width:w a and bb = Bits.of_int ~width:w b in
        popcount (Bits.concat ba bb) = popcount ba + popcount bb);
    prop "signed roundtrip" arb_wv (fun (w, v) ->
        let v = v - (1 lsl (w - 1)) in
        (* may be negative *)
        let b = Bits.of_signed_int ~width:(w + 1) v in
        Bits.to_signed_int b = v);
  ]

(* little-endian byte images against a byte-at-a-time reference *)
let byte_props =
  let arb_bytes =
    QCheck.make ~print:(fun s -> String.escaped s)
      QCheck.Gen.(string_size ~gen:char (0 -- 80))
  in
  [
    prop "of_bytes is little-endian" arb_bytes (fun s ->
        let b = Bytes.of_string s and n = String.length s in
        Bits.equal (Bits.of_bytes b)
          (Bits.concat_list
             (List.init n (fun i ->
                  Bits.of_int ~width:8 (Char.code s.[n - 1 - i])))));
    prop "to_bytes inverts of_bytes" arb_bytes (fun s ->
        Bytes.to_string (Bits.to_bytes (Bits.of_bytes (Bytes.of_string s))) = s);
    prop "to_bytes pads the last byte" arb_wv (fun (w, v) ->
        let b = Bits.to_bytes (Bits.of_int ~width:w v) in
        Bytes.length b = (w + 7) / 8
        && List.for_all
             (fun i -> Bytes.get_uint8 b i = (v lsr (8 * i)) land 0xff)
             (List.init (Bytes.length b) Fun.id));
    prop "concat_ints is concat_list of the fields"
      (QCheck.make QCheck.Gen.(list_size (1 -- 12) gen_wv))
      (fun fields ->
        let widths = Array.of_list (List.map fst fields) in
        let vs = Array.of_list (List.map snd fields) in
        Bits.equal
          (Bits.concat_ints ~widths vs)
          (Bits.concat_list
             (List.map (fun (w, v) -> Bits.of_int ~width:w v) fields)));
  ]

let () =
  Alcotest.run "bits"
    [
      ( "unit",
        [
          Alcotest.test_case "construction" `Quick test_construction;
          Alcotest.test_case "strings" `Quick test_strings;
          Alcotest.test_case "arith edges" `Quick test_arith_edges;
          Alcotest.test_case "wide arith" `Quick test_wide_arith;
          Alcotest.test_case "signed" `Quick test_signed;
          Alcotest.test_case "structure" `Quick test_structure;
          Alcotest.test_case "shifts" `Quick test_shifts;
        ] );
      ("properties", props @ byte_props);
    ]
