type macro = {
  macro_name : string;
  words : int;
  bits : int;
  area_um2 : float;
}

let m name words bits area = { macro_name = name; words; bits; area_um2 = area }

(* Area figures follow the usual sqrt-ish scaling of real compilers: bigger
   macros amortize periphery, so bits/um^2 improves with size. *)
let asap7_library =
  [
    m "sram_asap7_64x32" 64 32 450.;
    m "sram_asap7_256x32" 256 32 1100.;
    m "sram_asap7_256x64" 256 64 1900.;
    m "sram_asap7_1024x32" 1024 32 3400.;
    m "sram_asap7_1024x64" 1024 64 6100.;
    m "sram_asap7_4096x32" 4096 32 12200.;
    m "sram_asap7_4096x64" 4096 64 22800.;
  ]

let saed32_library =
  [
    m "sram_saed32_128x32" 128 32 5200.;
    m "sram_saed32_512x32" 512 32 16500.;
    m "sram_saed32_512x64" 512 64 30500.;
    m "sram_saed32_2048x32" 2048 32 58000.;
    m "sram_saed32_2048x64" 2048 64 109000.;
  ]

type plan = {
  macro : macro;
  banks : int;
  cascade : int;
  total_area_um2 : float;
  overhead_bits : int;
}

let cdiv a b = ((a - 1) / b) + 1

let compile ~library ~width_bits ~depth =
  if library = [] then invalid_arg "Sram.compile: empty library";
  if width_bits <= 0 || depth <= 0 then invalid_arg "Sram.compile: dimensions";
  let plan_for macro =
    let cascade = cdiv width_bits macro.bits in
    let banks = cdiv depth macro.words in
    let n = cascade * banks in
    {
      macro;
      banks;
      cascade;
      total_area_um2 = float_of_int n *. macro.area_um2;
      overhead_bits = (n * macro.words * macro.bits) - (width_bits * depth);
    }
  in
  List.fold_left
    (fun best macro ->
      let p = plan_for macro in
      match best with
      | None -> Some p
      | Some b -> if p.total_area_um2 < b.total_area_um2 then Some p else best)
    None library
  |> Option.get

let describe p =
  Printf.sprintf "%d bank(s) x %d cascaded %s (%.0f um^2, %d overhead bits)"
    p.banks p.cascade p.macro.macro_name p.total_area_um2 p.overhead_bits
