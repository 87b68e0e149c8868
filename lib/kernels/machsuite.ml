module B = Beethoven
module Soc = B.Soc
module R = Platform.Resources

type kernel = Gemm | Nw | Stencil2d | Stencil3d | Md_knn

let all = [ Gemm; Nw; Stencil2d; Stencil3d; Md_knn ]

let name = function
  | Gemm -> "GeMM"
  | Nw -> "NW"
  | Stencil2d -> "Stencil2D"
  | Stencil3d -> "Stencil3D"
  | Md_knn -> "MD-KNN"

let description = function
  | Gemm -> "O(N^3) matrix multiply"
  | Nw -> "O(N^2) string alignment"
  | Stencil2d -> "2D stencil pattern"
  | Stencil3d -> "3D stencil pattern"
  | Md_knn -> "N-body, k-nearest-neighbors approx."

let data_size = function
  | Gemm -> 256
  | Nw -> 256
  | Stencil2d -> 256
  | Stencil3d -> 32
  | Md_knn -> 1024

let knn_k = 32

let parallelism = function
  | Gemm -> "High"
  | Nw -> "None"
  | Stencil2d -> "Medium"
  | Stencil3d -> "High"
  | Md_knn -> "High"

let inner_ops k =
  let n = data_size k in
  match k with
  | Gemm -> n * n * n
  | Nw -> n * n
  | Stencil2d -> (n - 2) * (n - 2)
  | Stencil3d -> (n - 2) * (n - 2) * (n - 2)
  | Md_knn -> n * knn_k

(* Low-effort cycle model: one inner iteration per fabric cycle, except
   GeMM's medium-effort implementation (8 parallel MACs, the
   outer/middle-loop parallelization the paper describes). *)
let gemm_macs_per_cycle = 8

let beethoven_cycles k =
  let n = data_size k in
  match k with
  | Gemm -> (n * n * n / gemm_macs_per_cycle) + (n * n / gemm_macs_per_cycle)
  | Nw -> (n * n) + (4 * n)
  | Stencil2d -> n * n
  | Stencil3d -> n * n * n
  | Md_knn -> n * knn_k

(* ------------------------------------------------------------------ *)
(* Baseline models (documented in DESIGN.md §4): invocations per second *)
(* ------------------------------------------------------------------ *)

(* Vitis HLS selects its own clock (250 MHz achievable for these kernels);
   throughput limited by achievable II and unroll before congestion. *)
let hls_ops_per_sec k =
  let clock = 250.0e6 in
  let ops = float_of_int (inner_ops k) in
  match k with
  | Gemm -> clock *. 16. /. ops (* unroll 16, II=1 *)
  | Nw -> clock /. 4. /. ops (* loop-carried dependence: II=4 *)
  | Stencil2d -> clock *. 4. /. ops (* unroll 4 *)
  | Stencil3d -> clock *. 2. /. ops (* unroll 2 (port-limited) *)
  | Md_knn -> clock *. 4. /. 5. /. ops (* unroll 4, fp accumulation II=5 *)

(* Spatial at the 125 MHz default clock; similar pragmas, better II on NW. *)
let spatial_ops_per_sec k =
  let clock = 125.0e6 in
  let ops = float_of_int (inner_ops k) in
  match k with
  | Gemm -> clock *. 16. /. ops
  | Nw -> clock /. 2. /. ops
  | Stencil2d -> clock *. 4. /. ops
  | Stencil3d -> clock *. 2. /. ops
  | Md_knn -> clock *. 4. /. 5. /. ops

(* ------------------------------------------------------------------ *)
(* Functional references                                               *)
(* ------------------------------------------------------------------ *)

module Ref = struct
  (* int32 semantics via OCaml int, truncated on store *)
  let gemm n a b =
    let c = Array.make (n * n) 0 in
    for i = 0 to n - 1 do
      for k = 0 to n - 1 do
        let aik = a.((i * n) + k) in
        if aik <> 0 then
          for j = 0 to n - 1 do
            c.((i * n) + j) <- c.((i * n) + j) + (aik * b.((k * n) + j))
          done
      done
    done;
    Array.map (fun v -> v land 0xFFFFFFFF) c

  (* Needleman-Wunsch with MachSuite's scoring (match +1, mismatch -1,
     gap -1). Returns the two aligned strings, each padded to 2n bytes
     with '_'. *)
  let nw n seqa seqb =
    let gap = -1 in
    let score a b = if a = b then 1 else -1 in
    let m = Array.make_matrix (n + 1) (n + 1) 0 in
    for i = 0 to n do
      m.(i).(0) <- i * gap
    done;
    for j = 0 to n do
      m.(0).(j) <- j * gap
    done;
    for i = 1 to n do
      for j = 1 to n do
        let d = m.(i - 1).(j - 1) + score (Bytes.get seqa (i - 1)) (Bytes.get seqb (j - 1)) in
        let u = m.(i - 1).(j) + gap in
        let l = m.(i).(j - 1) + gap in
        m.(i).(j) <- max d (max u l)
      done
    done;
    let out_a = Buffer.create (2 * n) and out_b = Buffer.create (2 * n) in
    let rec back i j =
      if i > 0 || j > 0 then begin
        if
          i > 0 && j > 0
          && m.(i).(j)
             = m.(i - 1).(j - 1)
               + score (Bytes.get seqa (i - 1)) (Bytes.get seqb (j - 1))
        then begin
          Buffer.add_char out_a (Bytes.get seqa (i - 1));
          Buffer.add_char out_b (Bytes.get seqb (j - 1));
          back (i - 1) (j - 1)
        end
        else if i > 0 && m.(i).(j) = m.(i - 1).(j) + gap then begin
          Buffer.add_char out_a (Bytes.get seqa (i - 1));
          Buffer.add_char out_b '-';
          back (i - 1) j
        end
        else begin
          Buffer.add_char out_a '-';
          Buffer.add_char out_b (Bytes.get seqb (j - 1));
          back i (j - 1)
        end
      end
    in
    back n n;
    let pad buf =
      let s = Buffer.to_bytes buf in
      (* traceback emits reversed strings *)
      let len = Bytes.length s in
      let r = Bytes.make (2 * n) '_' in
      for i = 0 to len - 1 do
        Bytes.set r i (Bytes.get s (len - 1 - i))
      done;
      r
    in
    (pad out_a, pad out_b)

  (* 3x3 stencil with a fixed filter; borders copied through. *)
  let filter2d = [| 1; 2; 1; 2; 4; 2; 1; 2; 1 |]

  let stencil2d n grid =
    let out = Array.copy grid in
    for r = 1 to n - 2 do
      for c = 1 to n - 2 do
        let acc = ref 0 in
        for dr = -1 to 1 do
          for dc = -1 to 1 do
            acc :=
              !acc
              + (filter2d.(((dr + 1) * 3) + dc + 1)
                 * grid.(((r + dr) * n) + c + dc))
          done
        done;
        out.((r * n) + c) <- !acc land 0xFFFFFFFF
      done
    done;
    out

  (* MachSuite stencil3d: out = C0*center + C1*(sum of 6 face neighbors),
     boundary passed through. *)
  let stencil3d n grid =
    let c0 = 2 and c1 = 1 in
    let idx i j k = (((i * n) + j) * n) + k in
    let out = Array.copy grid in
    for i = 1 to n - 2 do
      for j = 1 to n - 2 do
        for k = 1 to n - 2 do
          let s =
            grid.(idx (i - 1) j k) + grid.(idx (i + 1) j k)
            + grid.(idx i (j - 1) k) + grid.(idx i (j + 1) k)
            + grid.(idx i j (k - 1)) + grid.(idx i j (k + 1))
          in
          out.(idx i j k) <- ((c0 * grid.(idx i j k)) + (c1 * s)) land 0xFFFFFFFF
        done
      done
    done;
    out

  (* Lennard-Jones force accumulation over a given neighbor list
     (MachSuite md/knn). positions: 3n floats; nl: n*k indices. *)
  let md_knn n k pos nl =
    let force = Array.make (3 * n) 0.0 in
    for i = 0 to n - 1 do
      let ix = pos.(3 * i) and iy = pos.((3 * i) + 1) and iz = pos.((3 * i) + 2) in
      let fx = ref 0.0 and fy = ref 0.0 and fz = ref 0.0 in
      for j = 0 to k - 1 do
        let nb = nl.((i * k) + j) in
        let dx = ix -. pos.(3 * nb)
        and dy = iy -. pos.((3 * nb) + 1)
        and dz = iz -. pos.((3 * nb) + 2) in
        let r2inv = 1.0 /. ((dx *. dx) +. (dy *. dy) +. (dz *. dz)) in
        let r6inv = r2inv *. r2inv *. r2inv in
        let potential = r6inv *. ((1.5 *. r6inv) -. 2.0) in
        let f = r2inv *. potential in
        fx := !fx +. (dx *. f);
        fy := !fy +. (dy *. f);
        fz := !fz +. (dz *. f)
      done;
      force.(3 * i) <- !fx;
      force.((3 * i) + 1) <- !fy;
      force.((3 * i) + 2) <- !fz
    done;
    force
end

(* ------------------------------------------------------------------ *)
(* Buffer sizes and layouts                                            *)
(* ------------------------------------------------------------------ *)

let in1_bytes k =
  let n = data_size k in
  match k with
  | Gemm -> n * n * 4
  | Nw -> n
  | Stencil2d -> n * n * 4
  | Stencil3d -> n * n * n * 4
  | Md_knn -> 3 * n * 8

let in2_bytes k =
  let n = data_size k in
  match k with
  | Gemm -> n * n * 4
  | Nw -> n
  | Stencil2d | Stencil3d -> 0
  | Md_knn -> n * knn_k * 4

let out_bytes k =
  let n = data_size k in
  match k with
  | Gemm -> n * n * 4
  | Nw -> 4 * n
  | Stencil2d -> n * n * 4
  | Stencil3d -> n * n * n * 4
  | Md_knn -> 3 * n * 8

(* ------------------------------------------------------------------ *)
(* The launch path, shared with Machsuite_extra                        *)
(* ------------------------------------------------------------------ *)

module Launch = struct
  type kernel = {
    system : string;
    cycles : int;
    in1_bytes : int;
    in2_bytes : int;
    out_bytes : int;
    fill : seed:int -> Bytes.t -> Bytes.t -> unit;
    expected : Bytes.t -> Bytes.t -> Bytes.t;
  }

  let command =
    B.Cmd_spec.make ~name:"launch" ~funct:0 ~response_bits:32
      [
        ("in1", B.Cmd_spec.Address);
        ("in2", B.Cmd_spec.Address);
        ("out", B.Cmd_spec.Address);
      ]

  let behavior k : Soc.behavior =
   fun ctx beats ~respond ->
    let arg = B.Cmd_spec.decode command beats in
    let in1 = arg "in1" and in2 = arg "in2" and out = arg "out" in
    let compute_and_write () =
      Soc.after_cycles ctx k.cycles (fun () ->
          let soc = ctx.Soc.soc in
          let image addr bytes =
            let b = Bytes.create bytes in
            Soc.blit_out soc ~src_addr:addr ~dst:b;
            b
          in
          Soc.blit_in soc
            ~src:(k.expected (image in1 k.in1_bytes) (image in2 k.in2_bytes))
            ~dst_addr:out;
          let writer = Soc.writer ctx "out" in
          Soc.Writer.bulk writer ~addr:out ~bytes:k.out_bytes
            ~on_done:(fun () -> respond 1L))
    in
    let r1 = Soc.reader ctx "in1" in
    if k.in2_bytes > 0 then begin
      let r2 = Soc.reader ctx "in2" in
      let pending = ref 2 in
      let arrive () =
        decr pending;
        if !pending = 0 then compute_and_write ()
      in
      Soc.Reader.bulk r1 ~addr:in1 ~bytes:k.in1_bytes ~on_done:arrive;
      Soc.Reader.bulk r2 ~addr:in2 ~bytes:k.in2_bytes ~on_done:arrive
    end
    else
      Soc.Reader.bulk r1 ~addr:in1 ~bytes:k.in1_bytes
        ~on_done:compute_and_write

  type host = {
    handle : Runtime.Handle.t;
    send : int -> Runtime.Handle.response_handle;
    verify : unit -> bool;
  }

  let host k config ~n_cores ~platform =
    let module H = Runtime.Handle in
    let design = B.Elaborate.elaborate config platform in
    let mem_needed =
      n_cores * (k.in1_bytes + max 4096 k.in2_bytes + k.out_bytes)
      + (1 lsl 20)
    in
    let soc =
      Soc.create
        ~memory_bytes:(max (64 * 1024 * 1024) (mem_needed * 2))
        design
        ~behaviors:(fun _ -> behavior k)
    in
    let handle = H.create soc in
    let allocs =
      Array.init n_cores (fun core ->
          let p1 = H.malloc handle k.in1_bytes in
          let p2 = H.malloc handle (max 4096 k.in2_bytes) in
          let po = H.malloc handle k.out_bytes in
          k.fill ~seed:(core * 7919) (H.host_bytes handle p1)
            (H.host_bytes handle p2);
          (p1, p2, po))
    in
    H.copy_all_to_fpga handle
      (List.concat_map (fun (p1, p2, _) -> [ p1; p2 ]) (Array.to_list allocs));
    let send core =
      let p1, p2, po = allocs.(core) in
      H.send handle ~system:k.system ~core ~cmd:command
        ~args:
          [
            ("in1", Int64.of_int p1.H.rp_addr);
            ("in2", Int64.of_int p2.H.rp_addr);
            ("out", Int64.of_int po.H.rp_addr);
          ]
    in
    let verify () =
      H.copy_all_from_fpga handle
        (Array.to_list (Array.map (fun (_, _, po) -> po) allocs));
      Array.for_all
        (fun (p1, p2, po) ->
          Bytes.equal
            (k.expected (H.host_bytes handle p1) (H.host_bytes handle p2))
            (H.host_bytes handle po))
        allocs
    in
    { handle; send; verify }
end

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

(* Per-core kernel logic estimates, reflecting the paper's utilization
   limits: GeMM/MD-KNN LUT-bound, the stencils and NW BRAM-bound via
   their scratchpads. *)
let kernel_resources = function
  | Gemm -> R.make ~clb:9000 ~lut:52000 ~ff:28000 ~dsp:64 ()
  | Nw -> R.make ~clb:1400 ~lut:7000 ~ff:5000 ()
  | Stencil2d -> R.make ~clb:1800 ~lut:9000 ~ff:7000 ()
  | Stencil3d -> R.make ~clb:2200 ~lut:11000 ~ff:9000 ()
  | Md_knn -> R.make ~clb:17000 ~lut:105000 ~ff:60000 ~dsp:96 ()

let scratchpads k =
  let n = data_size k in
  match k with
  | Gemm ->
      [
        B.Config.scratchpad ~name:"a_tile" ~data_bits:32 ~n_datas:(8 * n) ();
        B.Config.scratchpad ~name:"c_acc" ~data_bits:32 ~n_datas:(8 * n) ();
      ]
  | Nw ->
      [
        (* full DP matrix (16-bit scores) + 2-bit traceback *)
        B.Config.scratchpad ~name:"dp" ~data_bits:16 ~n_datas:(n * n) ();
        B.Config.scratchpad ~name:"tb" ~data_bits:2 ~n_datas:(n * n) ();
      ]
  | Stencil2d ->
      [ B.Config.scratchpad ~name:"tile" ~data_bits:32 ~n_datas:(n * n) () ]
  | Stencil3d ->
      [
        B.Config.scratchpad ~name:"grid_in" ~data_bits:32 ~n_datas:(n * n * n) ();
        B.Config.scratchpad ~name:"grid_out" ~data_bits:32 ~n_datas:(n * n * n) ();
      ]
  | Md_knn ->
      [ B.Config.scratchpad ~name:"positions" ~data_bits:64 ~n_datas:(3 * n) () ]

let config k ~n_cores =
  B.Config.make ~name:("machsuite_" ^ name k)
    [
      B.Config.system ~name:(name k) ~n_cores
        ~read_channels:
          [
            B.Config.read_channel ~name:"in1" ~data_bytes:4 ();
            B.Config.read_channel ~name:"in2" ~data_bytes:4 ();
          ]
        ~write_channels:[ B.Config.write_channel ~name:"out" ~data_bytes:4 () ]
        ~scratchpads:(scratchpads k) ~commands:[ Launch.command ]
        ~kernel_resources:(kernel_resources k) ();
    ]

let auto_cores k platform =
  let fits n =
    match B.Floorplan.place (config k ~n_cores:n) platform with
    | exception Failure _ -> false
    | _ -> true
  in
  let rec grow n = if n < 48 && fits (n + 1) then grow (n + 1) else n in
  if fits 1 then grow 1 else 0

(* ------------------------------------------------------------------ *)
(* Workload generation + verification                                  *)
(* ------------------------------------------------------------------ *)

let fill_inputs k ~seed in1_host in2_host =
  let rand = Fault.lcg ~seed:(seed + 17) in
  let n = data_size k in
  (match k with
  | Gemm ->
      for i = 0 to (n * n) - 1 do
        Bytes.set_int32_le in1_host (4 * i) (Int32.of_int (rand () mod 100));
        Bytes.set_int32_le in2_host (4 * i) (Int32.of_int (rand () mod 100))
      done
  | Nw ->
      let bases = "ACGT" in
      for i = 0 to n - 1 do
        Bytes.set in1_host i bases.[rand () mod 4];
        Bytes.set in2_host i bases.[rand () mod 4]
      done
  | Stencil2d | Stencil3d ->
      for i = 0 to (in1_bytes k / 4) - 1 do
        Bytes.set_int32_le in1_host (4 * i) (Int32.of_int (rand () mod 1000))
      done
  | Md_knn ->
      for i = 0 to (3 * n) - 1 do
        Bytes.set_int64_le in1_host (8 * i)
          (Int64.bits_of_float (float_of_int (rand () mod 1000) /. 50.0 +. 0.5))
      done;
      for i = 0 to n - 1 do
        for j = 0 to knn_k - 1 do
          (* neighbor list: any index != i *)
          let nb = (i + 1 + (rand () mod (n - 1))) mod n in
          Bytes.set_int32_le in2_host (4 * ((i * knn_k) + j)) (Int32.of_int nb)
        done
      done)

let expected_output k in1_host in2_host =
  let n = data_size k in
  let i32s b count = Array.init count (fun i ->
      Int32.to_int (Bytes.get_int32_le b (4 * i)) land 0xFFFFFFFF) in
  let out = Bytes.create (out_bytes k) in
  let put_i32s =
    Array.iteri (fun i v -> Bytes.set_int32_le out (4 * i) (Int32.of_int v))
  in
  (match k with
  | Gemm ->
      put_i32s (Ref.gemm n (i32s in1_host (n * n)) (i32s in2_host (n * n)))
  | Nw ->
      let la, lb = Ref.nw n in1_host in2_host in
      Bytes.blit la 0 out 0 (2 * n);
      Bytes.blit lb 0 out (2 * n) (2 * n)
  | Stencil2d -> put_i32s (Ref.stencil2d n (i32s in1_host (n * n)))
  | Stencil3d -> put_i32s (Ref.stencil3d n (i32s in1_host (n * n * n)))
  | Md_knn ->
      let pos = Array.init (3 * n) (fun i ->
          Int64.float_of_bits (Bytes.get_int64_le in1_host (8 * i))) in
      let nl = i32s in2_host (n * knn_k) in
      Array.iteri
        (fun i v -> Bytes.set_int64_le out (8 * i) (Int64.bits_of_float v))
        (Ref.md_knn n knn_k pos nl));
  out

let launch k =
  {
    Launch.system = name k;
    cycles = beethoven_cycles k;
    in1_bytes = in1_bytes k;
    in2_bytes = in2_bytes k;
    out_bytes = out_bytes k;
    fill = fill_inputs k;
    expected = expected_output k;
  }

let behavior k = Launch.behavior (launch k)

type run_result = {
  n_cores : int;
  wall_ps : int;
  measured_ops_per_sec : float;
  single_latency_ps : int;
  verified : bool;
}

let run ?(rounds = 1) k ~n_cores ~platform () =
  let host = Launch.host (launch k) (config k ~n_cores) ~n_cores ~platform in
  let module H = Runtime.Handle in
  let now () = Desim.Engine.now (H.engine host.Launch.handle) in
  (* single-invocation latency, measured in isolation *)
  let t0 = now () in
  ignore (H.await host.Launch.handle (host.Launch.send 0));
  let single_latency_ps = now () - t0 in
  (* steady-state phase: [rounds] invocations per core, all in flight *)
  let t1 = now () in
  let hs = ref [] in
  for _ = 1 to rounds do
    for core = 0 to n_cores - 1 do
      hs := host.Launch.send core :: !hs
    done
  done;
  ignore (H.await_all host.Launch.handle !hs);
  let wall_ps = now () - t1 in
  let verified = host.Launch.verify () in
  {
    n_cores;
    wall_ps;
    measured_ops_per_sec =
      float_of_int (rounds * n_cores) /. (float_of_int wall_ps *. 1e-12);
    single_latency_ps;
    verified;
  }
