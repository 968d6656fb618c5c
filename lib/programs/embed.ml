(* Build-time generator for [Program_files]: for each [NAME.retreet] on the
   command line, emits [let NAME = "\n<the file's bytes>"], then
   [all_named], every program keyed by its name, in file-name order. *)

let () =
  let files = List.sort compare (List.tl (Array.to_list Sys.argv)) in
  let name f = Filename.remove_extension (Filename.basename f) in
  List.iter
    (fun f ->
      let src = In_channel.with_open_bin f In_channel.input_all in
      Printf.printf "let %s = %S\n\n" (name f) ("\n" ^ src))
    files;
  print_string "let all_named = [\n";
  List.iter (fun f -> Printf.printf "  (%S, %s);\n" (name f) (name f)) files;
  print_string "]\n"
