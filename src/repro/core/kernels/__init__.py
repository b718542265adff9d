"""The expression engine: bound expression trees lowered to tensor programs.

TQP-style codegen (PAPERS.md): ``compiler.ExprCompiler`` lowers each bound
expression once, at plan time, into a closure composed of vectorized tensor
ops over an array namespace — numpy on detached data for exact plans,
``repro.tcr.ops`` where gradients must flow. ``strings`` holds the
dictionary-code kernels both namespaces share (docs/KERNEL_COMPILATION.md).
"""
