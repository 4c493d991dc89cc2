(* sha256_hex FILE: print FILE's SHA-256 as lowercase hex and a newline,
   the format of report_quick_jobs1.sha256. *)

let () =
  let data = In_channel.with_open_bin Sys.argv.(1) In_channel.input_all in
  print_endline (Tangled_util.Hex.encode (Tangled_hash.Sha256.digest data))
