//===- expr/Printer.cpp - Expression pretty-printer ------------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "expr/Printer.h"

using namespace autosynch;

namespace {

/// Binding strength; higher binds tighter. Mirrors the parser's precedence
/// table so printed output re-parses to the same tree.
int precedence(ExprKind K) {
  switch (K) {
  case ExprKind::Or:
    return 1;
  case ExprKind::And:
    return 2;
  case ExprKind::Eq:
  case ExprKind::Ne:
    return 3;
  case ExprKind::Lt:
  case ExprKind::Le:
  case ExprKind::Gt:
  case ExprKind::Ge:
    return 4;
  case ExprKind::Add:
  case ExprKind::Sub:
    return 5;
  case ExprKind::Mul:
  case ExprKind::Div:
  case ExprKind::Mod:
    return 6;
  case ExprKind::Neg:
  case ExprKind::Not:
    return 7;
  default:
    return 8; // Leaves.
  }
}

class PrinterImpl {
public:
  explicit PrinterImpl(const SymbolTable *Syms) : Syms(Syms) {}
  explicit PrinterImpl(std::function<std::string(VarId)> NameFn)
      : Syms(nullptr), NameFn(std::move(NameFn)) {}

  std::string print(ExprRef E) {
    Out.clear();
    render(E, /*ParentPrec=*/0, /*RightChild=*/false);
    return Out;
  }

private:
  void render(ExprRef E, int ParentPrec, bool RightChild) {
    int Prec = precedence(E->kind());
    // Left-associative operators need parens around a right child of equal
    // precedence (a - (b - c)), and any child of lower precedence.
    bool NeedParens =
        Prec < ParentPrec || (Prec == ParentPrec && RightChild);
    if (NeedParens)
      Out += '(';
    renderBare(E, Prec);
    if (NeedParens)
      Out += ')';
  }

  void renderBare(ExprRef E, int Prec) {
    switch (E->kind()) {
    case ExprKind::IntLit:
      Out += std::to_string(E->intValue());
      return;
    case ExprKind::BoolLit:
      Out += E->boolValue() ? "true" : "false";
      return;
    case ExprKind::Var:
      Out += varName(E->varId());
      return;
    case ExprKind::Neg:
      Out += '-';
      render(E->lhs(), Prec, /*RightChild=*/true);
      return;
    case ExprKind::Not:
      Out += '!';
      render(E->lhs(), Prec, /*RightChild=*/true);
      return;
    default:
      break;
    }
    render(E->lhs(), Prec, /*RightChild=*/false);
    Out += ' ';
    Out += exprKindSpelling(E->kind());
    Out += ' ';
    render(E->rhs(), Prec, /*RightChild=*/true);
  }

  std::string varName(VarId Id) const {
    if (NameFn)
      return NameFn(Id);
    if (Syms && Id < Syms->size())
      return Syms->info(Id).Name;
    std::string Name(1, 'v');
    Name += std::to_string(Id);
    return Name;
  }

  const SymbolTable *Syms;
  std::function<std::string(VarId)> NameFn;
  std::string Out;
};

} // namespace

std::string autosynch::printExpr(ExprRef E, const SymbolTable &Syms) {
  return PrinterImpl(&Syms).print(E);
}

std::string autosynch::printExpr(ExprRef E) {
  return PrinterImpl(static_cast<const SymbolTable *>(nullptr)).print(E);
}

std::string
autosynch::printExpr(ExprRef E,
                     const std::function<std::string(VarId)> &VarName) {
  return PrinterImpl(VarName).print(E);
}
