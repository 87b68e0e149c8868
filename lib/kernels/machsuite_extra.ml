module B = Beethoven
module R = Platform.Resources
module L = Machsuite.Launch

type kernel = Fft | Spmv | Kmp | Merge_sort

let all = [ Fft; Spmv; Kmp; Merge_sort ]

let name = function
  | Fft -> "FFT"
  | Spmv -> "SpMV"
  | Kmp -> "KMP"
  | Merge_sort -> "Sort"

let description = function
  | Fft -> "radix-2 DIT fast Fourier transform"
  | Spmv -> "sparse matrix-vector multiply (CRS)"
  | Kmp -> "Knuth-Morris-Pratt string search"
  | Merge_sort -> "bottom-up merge sort"

let data_size = function
  | Fft -> 1024
  | Spmv -> 512
  | Kmp -> 32768
  | Merge_sort -> 2048

(* SpMV row lengths are deterministic (4..11 nonzeros per row). *)
let spmv_row_len row = 4 + ((row * 7) mod 8)

let spmv_nnz =
  let n = data_size Spmv in
  let acc = ref 0 in
  for row = 0 to n - 1 do
    acc := !acc + spmv_row_len row
  done;
  !acc

let log2i n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let beethoven_cycles k =
  let n = data_size k in
  match k with
  | Fft -> n / 2 * log2i n (* one butterfly per cycle *)
  | Spmv -> spmv_nnz (* one MAC per cycle *)
  | Kmp -> n (* one text byte per cycle *)
  | Merge_sort -> n * log2i n (* one compare-exchange per cycle *)

module Ref = struct
  let fft re im =
    let n = Array.length re in
    if n <> Array.length im || n land (n - 1) <> 0 then
      invalid_arg "Ref.fft: power-of-two complex input";
    (* bit reversal *)
    let j = ref 0 in
    for i = 0 to n - 2 do
      if i < !j then begin
        let t = re.(i) in re.(i) <- re.(!j); re.(!j) <- t;
        let t = im.(i) in im.(i) <- im.(!j); im.(!j) <- t
      end;
      let m = ref (n lsr 1) in
      while !m >= 1 && !j land !m <> 0 do
        j := !j lxor !m;
        m := !m lsr 1
      done;
      j := !j lor !m
    done;
    (* butterflies *)
    let len = ref 2 in
    while !len <= n do
      let ang = -2.0 *. Float.pi /. float_of_int !len in
      let half = !len / 2 in
      let i = ref 0 in
      while !i < n do
        for k = 0 to half - 1 do
          let w_re = Float.cos (ang *. float_of_int k) in
          let w_im = Float.sin (ang *. float_of_int k) in
          let a = !i + k and b = !i + k + half in
          let t_re = (w_re *. re.(b)) -. (w_im *. im.(b)) in
          let t_im = (w_re *. im.(b)) +. (w_im *. re.(b)) in
          re.(b) <- re.(a) -. t_re;
          im.(b) <- im.(a) -. t_im;
          re.(a) <- re.(a) +. t_re;
          im.(a) <- im.(a) +. t_im
        done;
        i := !i + !len
      done;
      len := !len * 2
    done

  let spmv ~values ~col_idx ~row_ptr ~x =
    let n = Array.length row_ptr - 1 in
    Array.init n (fun row ->
        let acc = ref 0.0 in
        for k = row_ptr.(row) to row_ptr.(row + 1) - 1 do
          acc := !acc +. (values.(k) *. x.(col_idx.(k)))
        done;
        !acc)

  let kmp ~pattern ~text =
    let m = Bytes.length pattern and n = Bytes.length text in
    if m = 0 then invalid_arg "Ref.kmp: empty pattern";
    let fail = Array.make m 0 in
    let k = ref 0 in
    for q = 1 to m - 1 do
      while !k > 0 && Bytes.get pattern !k <> Bytes.get pattern q do
        k := fail.(!k - 1)
      done;
      if Bytes.get pattern !k = Bytes.get pattern q then incr k;
      fail.(q) <- !k
    done;
    let matches = ref 0 in
    let q = ref 0 in
    for i = 0 to n - 1 do
      while !q > 0 && Bytes.get pattern !q <> Bytes.get text i do
        q := fail.(!q - 1)
      done;
      if Bytes.get pattern !q = Bytes.get text i then incr q;
      if !q = m then begin
        incr matches;
        q := fail.(!q - 1)
      end
    done;
    !matches

  let merge_sort a =
    let n = Array.length a in
    let src = Array.copy a and dst = Array.make n 0 in
    let src = ref src and dst = ref dst in
    let width = ref 1 in
    while !width < n do
      let i = ref 0 in
      while !i < n do
        let mid = min (!i + !width) n in
        let hi = min (!i + (2 * !width)) n in
        let l = ref !i and r = ref mid in
        for k = !i to hi - 1 do
          if !l < mid && (!r >= hi || !src.(!l) <= !src.(!r)) then begin
            !dst.(k) <- !src.(!l);
            incr l
          end
          else begin
            !dst.(k) <- !src.(!r);
            incr r
          end
        done;
        i := hi
      done;
      let t = !src in
      src := !dst;
      dst := t;
      width := !width * 2
    done;
    !src
end

(* ------------------------------------------------------------------ *)
(* Buffer layouts                                                      *)
(* ------------------------------------------------------------------ *)

let in1_bytes k =
  let n = data_size k in
  match k with
  | Fft -> 2 * n * 8
  | Spmv ->
      (* row_ptr (n+1 x i32), col_idx (nnz x i32), padding to 8, values *)
      let head = ((n + 1) * 4) + (spmv_nnz * 4) in
      let head = (head + 7) / 8 * 8 in
      head + (spmv_nnz * 8)
  | Kmp -> n
  | Merge_sort -> n * 4

let in2_bytes k =
  match k with
  | Fft | Merge_sort -> 0
  | Spmv -> data_size Spmv * 8 (* x vector *)
  | Kmp -> 64 (* [plen:i32][pattern bytes] *)

let out_bytes k =
  let n = data_size k in
  match k with
  | Fft -> 2 * n * 8
  | Spmv -> n * 8
  | Kmp -> 8
  | Merge_sort -> n * 4

let kernel_resources = function
  | Fft -> R.make ~clb:6000 ~lut:34000 ~ff:22000 ~dsp:48 ()
  | Spmv -> R.make ~clb:2500 ~lut:14000 ~ff:9000 ~dsp:16 ()
  | Kmp -> R.make ~clb:900 ~lut:4500 ~ff:3000 ()
  | Merge_sort -> R.make ~clb:1600 ~lut:8000 ~ff:6000 ()

let scratchpads k =
  let n = data_size k in
  match k with
  | Fft ->
      [ B.Config.scratchpad ~name:"stage" ~data_bits:128 ~n_datas:n () ]
  | Spmv -> [ B.Config.scratchpad ~name:"x_vec" ~data_bits:64 ~n_datas:n () ]
  | Kmp -> []
  | Merge_sort ->
      [ B.Config.scratchpad ~name:"runs" ~data_bits:32 ~n_datas:(2 * n) () ]

let system k ~n_cores =
  B.Config.system ~name:(name k) ~n_cores
    ~read_channels:
      [
        B.Config.read_channel ~name:"in1" ~data_bytes:8 ();
        B.Config.read_channel ~name:"in2" ~data_bytes:8 ();
      ]
    ~write_channels:[ B.Config.write_channel ~name:"out" ~data_bytes:8 () ]
    ~scratchpads:(scratchpads k) ~commands:[ L.command ]
    ~kernel_resources:(kernel_resources k) ()

let config k ~n_cores =
  B.Config.make ~name:("machsuite_extra_" ^ name k) [ system k ~n_cores ]

(* ------------------------------------------------------------------ *)
(* Workloads + verification                                            *)
(* ------------------------------------------------------------------ *)

let fill_inputs k ~seed in1_host in2_host =
  let rand = Fault.lcg ~seed:(seed + 23) in
  let n = data_size k in
  let f64 buf i v = Bytes.set_int64_le buf (8 * i) (Int64.bits_of_float v) in
  match k with
  | Fft ->
      for i = 0 to (2 * n) - 1 do
        f64 in1_host i (float_of_int (rand () mod 2000 - 1000) /. 100.)
      done
  | Spmv ->
      let pos = ref 0 in
      Bytes.set_int32_le in1_host 0 0l;
      for row = 0 to n - 1 do
        pos := !pos + spmv_row_len row;
        Bytes.set_int32_le in1_host (4 * (row + 1)) (Int32.of_int !pos)
      done;
      let nnz = !pos in
      assert (nnz = spmv_nnz);
      let col_base = (n + 1) * 4 in
      let val_base = (col_base + (nnz * 4) + 7) / 8 * 8 in
      let k_ = ref 0 in
      for row = 0 to n - 1 do
        let len = spmv_row_len row in
        for e = 0 to len - 1 do
          (* spread the columns; keep them sorted within the row *)
          let col = (row + (e * 37)) mod n in
          Bytes.set_int32_le in1_host (col_base + (4 * !k_)) (Int32.of_int col);
          Bytes.set_int64_le in1_host
            (val_base + (8 * !k_))
            (Int64.bits_of_float (float_of_int (rand () mod 200 - 100) /. 10.));
          incr k_
        done
      done;
      for i = 0 to n - 1 do
        f64 in2_host i (float_of_int (rand () mod 100) /. 7.)
      done
  | Kmp ->
      let bases = "ABAB" in
      for i = 0 to n - 1 do
        Bytes.set in1_host i
          (if rand () mod 3 = 0 then 'A' else "ABCD".[rand () mod 4])
      done;
      Bytes.set_int32_le in2_host 0 4l;
      String.iteri (fun i c -> Bytes.set in2_host (4 + i) c) bases
  | Merge_sort ->
      for i = 0 to n - 1 do
        Bytes.set_int32_le in1_host (4 * i) (Int32.of_int (rand () mod 100000))
      done

let expected_output k in1_host in2_host =
  let n = data_size k in
  let out = Bytes.create (out_bytes k) in
  let f64_of buf base i =
    Int64.float_of_bits (Bytes.get_int64_le buf (base + (8 * i)))
  in
  let i32_of buf base i =
    Int32.to_int (Bytes.get_int32_le buf (base + (4 * i)))
  in
  let put_f64 i v = Bytes.set_int64_le out (8 * i) (Int64.bits_of_float v) in
  (match k with
  | Fft ->
      let re = Array.init n (f64_of in1_host 0) in
      let im = Array.init n (f64_of in1_host (8 * n)) in
      Ref.fft re im;
      Array.iteri put_f64 re;
      Array.iteri (fun i -> put_f64 (n + i)) im
  | Spmv ->
      let row_ptr = Array.init (n + 1) (i32_of in1_host 0) in
      let nnz = row_ptr.(n) in
      let col_base = (n + 1) * 4 in
      let col_idx = Array.init nnz (i32_of in1_host col_base) in
      let val_base = (col_base + (nnz * 4) + 7) / 8 * 8 in
      let values = Array.init nnz (f64_of in1_host val_base) in
      let x = Array.init n (f64_of in2_host 0) in
      Array.iteri put_f64 (Ref.spmv ~values ~col_idx ~row_ptr ~x)
  | Kmp ->
      let plen = i32_of in2_host 0 0 in
      let pattern = Bytes.sub in2_host 4 plen in
      let matches = Ref.kmp ~pattern ~text:in1_host in
      Bytes.set_int64_le out 0 (Int64.of_int matches)
  | Merge_sort ->
      Array.iteri
        (fun i v -> Bytes.set_int32_le out (4 * i) (Int32.of_int v))
        (Ref.merge_sort (Array.init n (i32_of in1_host 0))));
  out

let launch k =
  {
    L.system = name k;
    cycles = beethoven_cycles k;
    in1_bytes = in1_bytes k;
    in2_bytes = in2_bytes k;
    out_bytes = out_bytes k;
    fill = fill_inputs k;
    expected = expected_output k;
  }

let behavior k = L.behavior (launch k)

type run_result = {
  n_cores : int;
  wall_ps : int;
  measured_ops_per_sec : float;
  verified : bool;
}

let run k ~n_cores ~platform () =
  let host = L.host (launch k) (config k ~n_cores) ~n_cores ~platform in
  let engine = Runtime.Handle.engine host.L.handle in
  let t0 = Desim.Engine.now engine in
  ignore
    (Runtime.Handle.await_all host.L.handle (List.init n_cores host.L.send));
  let wall_ps = Desim.Engine.now engine - t0 in
  let verified = host.L.verify () in
  {
    n_cores;
    wall_ps;
    measured_ops_per_sec =
      float_of_int n_cores /. (float_of_int wall_ps *. 1e-12);
    verified;
  }
