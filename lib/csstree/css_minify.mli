(** The three minification passes of the paper's Figure 8, as executable
    transformations on the CSS object model: {e ConvertValues} (shorter
    equivalent units), {e MinifyFont} ([normal]/[bold] → [400]/[700]) and
    {e ReduceInit} ([initial] → the shorter concrete value).

    {!minify} runs them in the paper's pass order; {!minify_fused} is the
    fused single pass whose correctness the Retreet framework proves on
    the traversal skeletons — the two must (and do) agree on every
    stylesheet. *)

val minify : Css_ast.stylesheet -> Css_ast.stylesheet
(** ConvertValues, then MinifyFont, then ReduceInit. *)

val minify_fused : Css_ast.stylesheet -> Css_ast.stylesheet
(** One traversal applying the three rewrites per declaration. *)
