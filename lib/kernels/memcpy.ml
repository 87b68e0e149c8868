module B = Beethoven
module Soc = B.Soc

type impl = Pure_hdl | Beethoven | Beethoven_no_tlp | Beethoven_16beat | Hls

let impl_name = function
  | Pure_hdl -> "Pure-HDL"
  | Beethoven -> "Beethoven"
  | Beethoven_no_tlp -> "Beethoven (No-TLP)"
  | Beethoven_16beat -> "Beethoven (16-beat)"
  | Hls -> "HLS"

let all_impls = [ Hls; Beethoven; Beethoven_no_tlp; Beethoven_16beat; Pure_hdl ]

let burst_beats = function Hls | Beethoven_16beat -> 16 | _ -> 64

let tuning = function
  | Pure_hdl -> (64, 1, false)
  | Beethoven -> (64, 4, true)
  | Beethoven_no_tlp -> (64, 4, false)
  | Beethoven_16beat -> (16, 4, true)
  | Hls -> (16, 4, false)

let command =
  B.Cmd_spec.make ~name:"memcpy" ~funct:0 ~response_bits:32
    [
      ("src", B.Cmd_spec.Address);
      ("dst", B.Cmd_spec.Address);
      ("bytes", B.Cmd_spec.Uint 32);
    ]

(* One memcpy system per (burst beats, in flight, TLP) tuning;
   [resources] is [None] only for the channel tuner's bare candidates. *)
let tuned_system ~n_cores ~resources (beats, in_flight, tlp) =
  let buffer_beats = beats * max 2 in_flight in
  B.Config.system ~name:"Memcpy" ~n_cores
    ~read_channels:
      [
        B.Config.read_channel ~name:"src" ~data_bytes:64 ~burst_beats:beats
          ~max_in_flight:in_flight ~use_tlp:tlp ~buffer_beats ();
      ]
    ~write_channels:
      [
        B.Config.write_channel ~name:"dst" ~data_bytes:64 ~burst_beats:beats
          ~max_in_flight:in_flight ~use_tlp:tlp ~buffer_beats ();
      ]
    ~commands:[ command ] ?kernel_resources:resources ()

let resources = Some (Platform.Resources.make ~clb:60 ~lut:250 ~ff:300 ())

(* The well-tuned memcpy system (64-beat bursts, 4 in flight, TLP), the
   shape every full-host-path campaign and the serving layer deploy. *)
let system ~n_cores = tuned_system ~n_cores ~resources (tuning Beethoven)

let config impl =
  B.Config.make ~name:("memcpy_" ^ impl_name impl)
    [ tuned_system ~n_cores:1 ~resources (tuning impl) ]

(* Forward each arriving beat straight into the writer. The item width
   follows the platform's AXI beat (64 B on the discrete shells, 16 B
   on Kria), so the same behavior serves a heterogeneous fleet. *)
let behavior : Soc.behavior =
 fun ctx beats ~respond ->
  let arg = B.Cmd_spec.decode command beats in
  let src = arg "src" and dst = arg "dst" and bytes = arg "bytes" in
  let reader = Soc.reader ctx "src" in
  let writer = Soc.writer ctx "dst" in
  let item = min 64 (Soc.Reader.beat_bytes reader) in
  Soc.Writer.begin_txn writer ~addr:dst ~bytes ~on_done:(fun () ->
      respond (Int64.of_int bytes));
  Soc.Reader.stream reader ~addr:src ~bytes ~item_bytes:item
    ~on_item:(fun ~offset ->
      let n = min item (bytes - offset) in
      Soc.copy_within ctx.Soc.soc ~src:(src + offset) ~dst:(dst + offset)
        ~bytes:n;
      (* the writer's item is the channel's 64 B port word; push once per
         completed word, however many AXI beats the platform needed to
         carry it in *)
      if (offset + n) mod 64 = 0 || offset + n >= bytes then
        Soc.Writer.push writer ~on_accept:(fun () -> ()))
    ~on_done:(fun () -> ())
    ()

type result = {
  bytes : int;
  wall_ps : int;
  bandwidth_gbs : float;
  verified : bool;
}

let run ?tracer ?seed ~impl ~bytes ~platform () =
  let design = B.Elaborate.elaborate (config impl) platform in
  let soc = Soc.create ?tracer design ~behaviors:(fun _ -> behavior) in
  let handle = Runtime.Handle.create soc in
  let src = 1 lsl 20 and dst = 1 lsl 22 in
  (match seed with
  | None ->
      for i = 0 to (bytes / 4) - 1 do
        Soc.write_u32 soc (src + (i * 4))
          (Int32.of_int ((i * 2654435761) land 0x3FFFFFFF))
      done
  | Some seed ->
      (* seeded fill: same seed, same source image, byte for byte *)
      let rng = Fault.Rng.create ~seed:(Int64.of_int seed) in
      for i = 0 to (bytes / 8) - 1 do
        Soc.write_u64 soc (src + (i * 8)) (Fault.Rng.next rng)
      done);
  let h =
    Runtime.Handle.send handle ~system:"Memcpy" ~core:0 ~cmd:command
      ~args:
        [
          ("src", Int64.of_int src);
          ("dst", Int64.of_int dst);
          ("bytes", Int64.of_int bytes);
        ]
  in
  ignore (Runtime.Handle.await handle h);
  (* wall time of the copy itself: the first-to-last DRAM activity window,
     isolating the memory path from host latency as the paper does *)
  let traffic =
    Dram.bytes_read (Soc.dram soc) + Dram.bytes_written (Soc.dram soc)
  in
  let bw_total = Dram.achieved_bandwidth_gbs (Soc.dram soc) in
  let wall =
    if bw_total <= 0. then 0
    else int_of_float (float_of_int traffic /. bw_total *. 1000.)
  in
  let verified =
    let ok = ref true in
    for i = 0 to (bytes / 4) - 1 do
      if Soc.read_u32 soc (src + (i * 4)) <> Soc.read_u32 soc (dst + (i * 4))
      then ok := false
    done;
    !ok
  in
  let bandwidth_gbs =
    if wall = 0 then 0. else float_of_int bytes /. float_of_int wall *. 1000.
  in
  { bytes; wall_ps = wall; bandwidth_gbs; verified }

type tuning_point = {
  tp_burst_beats : int;
  tp_in_flight : int;
  tp_tlp : bool;
  tp_bandwidth_gbs : float;
}

let config_custom ~burst_beats ~in_flight ~tlp =
  B.Config.make ~name:"memcpy_tuned"
    [ tuned_system ~n_cores:1 ~resources:None (burst_beats, in_flight, tlp) ]

let tune ?(bytes = 256 * 1024) ~platform () =
  let measure ~burst_beats ~in_flight ~tlp =
    let design =
      B.Elaborate.elaborate (config_custom ~burst_beats ~in_flight ~tlp)
        platform
    in
    let soc = Soc.create design ~behaviors:(fun _ -> behavior) in
    let handle = Runtime.Handle.create soc in
    let h =
      Runtime.Handle.send handle ~system:"Memcpy" ~core:0 ~cmd:command
        ~args:
          [
            ("src", 1048576L);
            ("dst", 8388608L);
            ("bytes", Int64.of_int bytes);
          ]
    in
    ignore (Runtime.Handle.await handle h);
    let dram = Soc.dram soc in
    let traffic = Dram.bytes_read dram + Dram.bytes_written dram in
    let bw = Dram.achieved_bandwidth_gbs dram in
    if bw <= 0. then 0.
    else float_of_int bytes /. (float_of_int traffic /. bw) 
  in
  let points =
    List.concat_map
      (fun burst ->
        List.concat_map
          (fun in_flight ->
            List.map
              (fun tlp ->
                {
                  tp_burst_beats = burst;
                  tp_in_flight = in_flight;
                  tp_tlp = tlp;
                  tp_bandwidth_gbs = measure ~burst_beats:burst ~in_flight ~tlp;
                })
              [ false; true ])
          [ 1; 2; 4 ])
      [ 8; 16; 32; 64 ]
  in
  List.sort
    (fun a b -> Float.compare b.tp_bandwidth_gbs a.tp_bandwidth_gbs)
    points
